package decision

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/kv"
	"repro/internal/sim"
)

// The query grammar is a space-separated clause list, mirroring
// fault.ParsePlan and topology.ParseLoadSpec:
//
//	kind=place,route vm=srv0 chooser=ctl winner=host3 t>40ms t<6s
//
// Clauses AND together. kind takes a comma-separated kind list; vm
// matches the record's subject by logical VM name (migration
// generations like "srv0#2" match vm=srv0); t> and t< bound the
// decision time strictly. "" and "all" are the match-everything query.
// String() renders the canonical form (fixed clause order, kinds in
// enum order) and ParseQuery(q.String()) round-trips exactly — the
// property FuzzParseQuery pins.

// Query is a parsed decision filter.
type Query struct {
	Kinds   []Kind // deduplicated, enum order; empty matches all
	VM      string
	Chooser string
	Winner  string
	After   sim.Time // t>: strictly later than this (0 = unset)
	Before  sim.Time // t<: strictly earlier than this (0 = unset)
}

// queryFields is the key=value clause grammar; its render omits unset
// clauses.
var queryFields = kv.Sparse(
	kv.Func("kind", parseQueryKinds, func(q *Query) string {
		names := make([]string, len(q.Kinds))
		for i, k := range q.Kinds {
			names[i] = k.String()
		}
		return strings.Join(names, ",")
	}),
	kv.Text("vm", func(q *Query) *string { return &q.VM }),
	kv.Text("chooser", func(q *Query) *string { return &q.Chooser }),
	kv.Text("winner", func(q *Query) *string { return &q.Winner }),
)

// parseQueryKinds sets q.Kinds from a kind list without duplicates.
func parseQueryKinds(q *Query, val string) error {
	kinds, dup, err := parseKinds(val)
	if dup {
		err = fmt.Errorf("duplicate kind in %q", val)
	}
	q.Kinds = kinds
	return err
}

// ParseQuery parses the filter grammar.
func ParseQuery(s string) (Query, error) {
	var q Query
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return q, nil
	}
	var seen kv.Seen
	var bounded [2]bool // t>, t< given
	for _, clause := range strings.Fields(s) {
		if !strings.HasPrefix(clause, "t>") && !strings.HasPrefix(clause, "t<") {
			if err := queryFields.Set(&q, clause, &seen); err != nil {
				return Query{}, fmt.Errorf("decision: clause %q: %v (want kind/vm/chooser/winner/t>/t<)", clause, err)
			}
			continue
		}
		i, bound := 0, &q.After
		if clause[1] == '<' {
			i, bound = 1, &q.Before
		}
		if bounded[i] {
			return Query{}, fmt.Errorf("decision: duplicate %q clause", clause[:2])
		}
		bounded[i] = true
		d, err := time.ParseDuration(clause[2:])
		if err != nil {
			return Query{}, fmt.Errorf("decision: bad duration in %q: %v", clause, err)
		}
		if d < 0 {
			return Query{}, fmt.Errorf("decision: negative duration in %q", clause)
		}
		*bound = sim.Duration(d)
	}
	if q.After > 0 && q.Before > 0 && q.Before <= q.After {
		return Query{}, fmt.Errorf("decision: empty time window t>%v t<%v", q.After, q.Before)
	}
	return q, nil
}

// String renders the canonical query form; ParseQuery round-trips it.
func (q Query) String() string {
	parts := queryFields.Append(nil, &q)
	if q.After > 0 {
		parts = append(parts, "t>"+q.After.Std().String())
	}
	if q.Before > 0 {
		parts = append(parts, "t<"+q.Before.Std().String())
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// matchVM reports whether subject names the logical VM want: exact, or
// a migration generation of it ("srv0#2" matches "srv0").
func matchVM(subject, want string) bool {
	if subject == want {
		return true
	}
	base, _, ok := strings.Cut(subject, "#")
	return ok && base == want
}

// Match reports whether rec satisfies every clause.
func (q Query) Match(rec *Record) bool {
	if len(q.Kinds) > 0 {
		hit := false
		for _, k := range q.Kinds {
			if rec.Kind == k {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	if q.VM != "" && !matchVM(rec.Subject, q.VM) {
		return false
	}
	if q.Chooser != "" && rec.Chooser != q.Chooser {
		return false
	}
	if q.Winner != "" && rec.Winner != q.Winner {
		return false
	}
	if q.After > 0 && rec.At <= q.After {
		return false
	}
	if q.Before > 0 && rec.At >= q.Before {
		return false
	}
	return true
}

// Filter returns the records matching q, in input order.
func Filter(recs []Record, q Query) []Record {
	var out []Record
	for i := range recs {
		if q.Match(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}
