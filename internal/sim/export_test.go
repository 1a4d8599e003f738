package sim

// SetShardOrder installs order to reorder each window's active shards
// before they run, for the execution-order oracle in order_test.go.
func SetShardOrder(s *ShardedEngine, order func([]*Engine)) { s.order = order }
