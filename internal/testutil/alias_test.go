package testutil

import (
	"cmp"
	"slices"
	"testing"
)

// toyNode is a node with a table and a log, and handlers that reply fresh,
// reply with its own row, keep or write their request, or reply with a
// string or with a payload charged less than it is written in.
type toyNode struct {
	rows map[int][]int
	kept [][]int
	name string
}

func (n *toyNode) handle(at int, method string, req any) (any, int, error) {
	switch method {
	case "fresh":
		return slices.Clone(n.rows[req.(int)]), at, nil
	case "alias":
		return struct{ Row []int }{n.rows[req.(int)]}, at, nil
	case "keep":
		n.kept = append(n.kept, req.([]int))
	case "write":
		req.([]int)[0] = 0
	case "name":
		return n.name, at, nil
	case "size":
		return misSized{}, at, nil
	}
	return nil, at, nil
}

// misSized is written in 4 bytes, an int, and charged 3.
type misSized struct{ N int }

func (misSized) SizeBytes() int { return 3 }

// TestAliasProbeSeesWhatItMust: a reply aliasing its node's state is
// reported with both paths, as are a handler keeping or writing its
// request, a reply written after delivery, a reply charged other than the
// reference encoder writes it and a listed method never delivered; fresh
// replies and strings, which are immutable, are not.
func TestAliasProbeSeesWhatItMust(t *testing.T) {
	for _, c := range []struct {
		method string // "" delivers nothing
		req    any
		after  func(resp any)
		want   []string
	}{
		{"fresh", 1, nil, nil},
		{"name", 0, nil, nil},
		{"alias", 1, nil, []string{"alias resp.Row ~ n.rows{} (1 times)"}},
		{"keep", []int{7}, nil, []string{"keep n keeps req ~ n.kept[] (1 times)"}},
		{"write", []int{7}, nil, []string{"write req changed after delivery (1 times)"}},
		{"fresh", 1, func(resp any) { resp.([]int)[0] = 99 }, []string{"fresh resp changed after delivery (1 times)"}},
		{"size", 0, nil, []string{"size resp testutil.misSized charged 3 B, encoded in 4 (1 times)"}},
		{"", nil, nil, []string{"no alias leg was delivered"}},
	} {
		n := &toyNode{rows: map[int][]int{1: {10, 11}}, name: "n"}
		p := NewAliasProbe()
		p.Node("n", n)
		if c.method != "" {
			resp, _, _ := Wrap(p, "n", n.handle)(0, c.method, c.req)
			if c.after != nil {
				c.after(resp)
			}
		}
		if got := p.Findings(cmp.Or(c.method, "alias")); !slices.Equal(got, c.want) {
			t.Errorf("%s: found %q, want %q", c.method, got, c.want)
		}
	}
}
