package overlay

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// chainSystem is a converged deployment of nIndex index nodes at the given
// replication, with storage nodes D1 and D2.
func chainSystem(t *testing.T, nIndex, replication int) (*System, simnet.VTime) {
	t.Helper()
	s := NewSystem(Config{Bits: 16, Replication: replication,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for i := 0; i < nIndex; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	now = s.Converge(now)
	for _, d := range []simnet.Addr{"D1", "D2"} {
		_, done, err := s.AddStorageNode(d, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return s, now
}

// rebuiltRows is every key's row as publishing the providers' graphs from
// scratch would write it.
func rebuiltRows(s *System) map[chord.ID][]Posting {
	freq := map[chord.ID]map[simnet.Addr]int{}
	for _, st := range s.StorageNodes() {
		graphs := []*rdf.Graph{st.Graph}
		for _, name := range st.GraphNames() {
			graphs = append(graphs, st.NamedGraph(name))
		}
		for _, g := range graphs {
			for _, tr := range g.Triples() {
				for _, k := range TripleKeys(tr, s.Config().Bits) {
					if freq[k] == nil {
						freq[k] = map[simnet.Addr]int{}
					}
					freq[k][st.Addr()]++
				}
			}
		}
	}
	rows := map[chord.ID][]Posting{}
	for k, byProvider := range freq {
		for node, f := range byProvider {
			rows[k] = append(rows[k], Posting{Node: node, Freq: f})
		}
		slices.SortFunc(rows[k], byNode)
	}
	return rows
}

// checkRebuilt holds the row of every published key and of every key of
// written, at the owner ResolveKey finds from D1, to the rebuild's (an
// absent row for a key nothing shares any more), and every live replica
// holder's copy of the rows of written to its owner's.
func checkRebuilt(t *testing.T, s *System, label string, written []chord.ID, at simnet.VTime) {
	t.Helper()
	want := rebuiltRows(s)
	keys := slices.Clone(written)
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for _, k := range keys {
		owner, _, _, err := s.ResolveKey("D1", k, at)
		if err != nil {
			t.Fatalf("%s: resolve %v: %v", label, k, err)
		}
		idx, _ := s.Index(owner)
		if got := idx.Table.Get(k); !slices.Equal(got, want[k]) {
			t.Errorf("%s: key %v at owner %s: %v, rebuild %v", label, k, owner, got, want[k])
		}
	}
	for _, d := range replicaDiffs(s, written) {
		t.Errorf("%s: %s", label, d)
	}
}

// writeChains follows every delivered put_batch among spans down its write
// chain by parent links, through delivered legs only: the put_batch, each
// index.replicate, and the acknowledgement that ends it.
func writeChains(spans []trace.Span) [][]trace.Span {
	children := map[uint64][]trace.Span{}
	var chains [][]trace.Span
	for _, sp := range spans {
		if sp.Kind != trace.KindMessage || sp.Note != "" {
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], sp)
		if sp.Name == MethodPutBatch && !sp.IsResponse() {
			chains = append(chains, []trace.Span{sp})
		}
	}
	for i, chain := range chains {
		for last := chain[0]; !last.IsResponse() && len(children[last.ID]) == 1; {
			last = children[last.ID][0]
			chain = append(chain, last)
		}
		chains[i] = chain
	}
	return chains
}

// legDrop wraps an index node's handler and loses one leg: the request of
// the first call that match accepts (the handler does not run) or, with
// afterRun, what the handler sends back once it ran — at a chain's tail, its
// acknowledgement. With every, it loses that leg of every call match
// accepts. seqs, shared by every wrapped node, collects the Seq of each
// put_batch that reached one.
type legDrop struct {
	node     *IndexNode
	match    func(method string, req simnet.Payload) bool
	afterRun bool
	every    bool
	dropped  bool
	seqs     *[]uint64
}

func (l *legDrop) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if r, ok := req.(*PutBatchReq); ok {
		*l.seqs = append(*l.seqs, r.Seq)
	}
	if l.dropped && !l.every || l.match == nil || !l.match(method, req) {
		return l.node.HandleCall(at, method, req)
	}
	l.dropped = true
	if !l.afterRun {
		return nil, at, simnet.ErrMessageLost
	}
	_, done, _ := l.node.HandleCall(at, method, req)
	return nil, done, simnet.ErrReplyLost
}

// TestWriteChainAcknowledgesFromTail holds a put_batch to its write chain.
// At Replication 1–3, on a ring of one and of two, and with an owner's
// successor crashed by FailNode or inside a FaultPlan crash window, every
// shipment is R + 1 delivered legs (2 at R = 1, or when the ring has fewer
// members than copies, one leg per member plus one) — the put_batch, one
// index.replicate per holder, each sent by the leg before's receiver — and
// its last leg is the acknowledgement that reaches the publisher, whose
// edit completes when the last acknowledgement lands. Then each leg
// position of one owner's chain is lost in turn — the put_batch, every
// replicate, the acknowledgement, and a stale holder's pull: a lost chain
// leg makes the publisher re-send the batch under the same Seq, at least
// FailTimeout later, and a lost pull is re-sent by its holder. Every
// owner's row and its live replica holders' copies equal a rebuild from the
// providers' graphs afterwards, so no relative frequency was applied twice.
func TestWriteChainAcknowledgesFromTail(t *testing.T) {
	triples := replicaTriples(12)

	for _, tc := range []struct {
		name                string
		nIndex, replication int
		crash               string // "", "fail" or "window": how the owner's successor goes down
		legs                int
	}{
		{"R1", 4, 1, "", 2},
		{"R2", 4, 2, "", 3},
		{"R3", 4, 3, "", 4},
		{"ring of one", 1, 2, "", 2},
		{"ring of two at R3", 2, 3, "", 3},
		{"R2 successor failed", 4, 2, "fail", 3},
		{"R3 successor failed", 4, 3, "fail", 4},
		{"R2 successor in a crash window", 4, 2, "window", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, now := chainSystem(t, tc.nIndex, tc.replication)
			now, err := s.Publish("D1", triples[:8], now)
			if err != nil {
				t.Fatal(err)
			}
			// D2 learns the owner arc of every key it retracts below. A
			// crash window, unlike FailNode, leaves them standing: its
			// shipments then meet the crashed node in their chains, where
			// routing would have evicted it.
			if now, err = s.Publish("D2", triples, now); err != nil {
				t.Fatal(err)
			}
			// around is the hop a chain past the crashed node takes: from
			// its predecessor straight to its successor.
			var down simnet.Addr
			var around [2]string
			if tc.crash != "" {
				// The first successor that is no provider's ring entry
				// point: a provider attached to a node inside a crash
				// window cannot reach the ring at all.
				d1, _ := s.Storage("D1")
				d2, _ := s.Storage("D2")
				for _, n := range s.IndexNodes() {
					if succ := n.Chord.Successor().Addr; succ != d1.AttachedTo() && succ != d2.AttachedTo() {
						down = succ
						idx, _ := s.Index(succ)
						around = [2]string{string(n.Addr()), string(idx.Chord.Successor().Addr)}
						break
					}
				}
				if tc.crash == "fail" {
					s.FailNode(down)
				} else {
					// The crash falls between the put_batch legs, which
					// all leave at once, and the replicate legs after them.
					from := now.Add(3 * s.Net().Config().BaseLatency / 2)
					s.Net().SetFaults(&simnet.FaultPlan{Crashes: []simnet.CrashWindow{{Node: down, From: from}}})
				}
			}
			buf := trace.NewBuffer()
			s.Net().SetRecorder(buf)
			done, err := s.Retract("D2", triples[:6], now)
			s.Net().SetRecorder(nil)
			if err != nil {
				t.Fatal(err)
			}
			chains := writeChains(buf.Spans())
			if len(chains) == 0 {
				t.Fatal("no put_batch traced")
			}
			var acked simnet.VTime
			skipped := false
			for _, chain := range chains {
				path := chainPath(chain)
				for i := 1; i < len(path); i++ {
					skipped = skipped || [2]string{path[i-1], path[i]} == around
				}
				tail := chain[len(chain)-1]
				if len(chain) != tc.legs || !tail.IsResponse() || tail.Name != MethodPutBatch || tail.To != "D2" {
					t.Errorf("chain %v: %d legs ending %s → %s, want %d ending with the put_batch acknowledgement to D2",
						chainPath(chain), len(chain), tail.From, tail.To, tc.legs)
					continue
				}
				for i := 1; i < len(chain)-1; i++ {
					if chain[i].Name != MethodReplica || chain[i].From != chain[i-1].To {
						t.Errorf("chain %v: leg %d is %s from %s", chainPath(chain), i, chain[i].Name, chain[i].From)
					}
				}
				acked = max(acked, simnet.VTime(tail.End))
			}
			if done != acked {
				t.Errorf("the edit completed at %v, its last acknowledgement landed at %v", done, acked)
			}
			if down != "" && !skipped {
				t.Errorf("no write chain went from %s past the crashed %s to %s", around[0], down, around[1])
			}
			if tc.crash == "window" {
				tried := false
				for _, sp := range buf.Spans() {
					tried = tried || sp.Name == MethodReplica && sp.To == string(down) && sp.Note == flight.KindUnreachable
				}
				if !tried {
					t.Errorf("no write chain found the crashed %s down", down)
				}
				// Only a known crash takes the node out of the replica
				// check: the window leaves it registered and alive.
				s.FailNode(down)
			}
			checkRebuilt(t, s, tc.name, distinctKeys(triples[:6], s.Config().Bits), done)
		})
	}

	for r := 1; r <= 3; r++ {
		// A position loses a leg at chain[at], chain being the owner of the
		// first key followed by its next r − 1 successors: the write chain
		// of that owner's shipment.
		type position struct {
			name     string
			at       int // index into the chain of the node that loses the leg
			match    func(chain []simnet.Addr, method string, req simnet.Payload) bool
			afterRun bool
		}
		replicateFrom := func(h int, tail bool) func([]simnet.Addr, string, simnet.Payload) bool {
			return func(chain []simnet.Addr, method string, req simnet.Payload) bool {
				d, ok := req.(ReplicaDelta)
				return method == MethodReplica && ok && d.From == chain[h-1] && (!tail || d.Left == 0)
			}
		}
		method := func(m string) func([]simnet.Addr, string, simnet.Payload) bool {
			return func(_ []simnet.Addr, method string, _ simnet.Payload) bool { return method == m }
		}
		positions := []position{{name: "put_batch", match: method(MethodPutBatch)}}
		for h := 1; h < r; h++ {
			positions = append(positions, position{name: fmt.Sprintf("replicate %d", h), at: h, match: replicateFrom(h, false)})
		}
		if r == 1 {
			positions = append(positions, position{name: "acknowledgement", match: method(MethodPutBatch), afterRun: true})
		} else {
			positions = append(positions,
				position{name: "acknowledgement", at: r - 1, match: replicateFrom(r-1, true), afterRun: true},
				position{name: "stale-row pull", match: method(MethodReplicaRepair)})
		}
		for _, pos := range positions {
			label := fmt.Sprintf("R%d lost %s", r, pos.name)
			t.Run(label, func(t *testing.T) {
				s, now := chainSystem(t, 4, r)
				now, err := s.Publish("D1", triples[:8], now)
				if err != nil {
					t.Fatal(err)
				}
				key := distinctKeys(triples, s.Config().Bits)[0]
				owner, _, _, err := s.ResolveKey("D2", key, now)
				if err != nil {
					t.Fatal(err)
				}
				chain := []simnet.Addr{owner}
				for len(chain) < r {
					idx, _ := s.Index(chain[len(chain)-1])
					chain = append(chain, idx.Chord.Successor().Addr)
				}
				if pos.name == "stale-row pull" {
					// A posting the owner's row lacks makes the first
					// holder's digest disagree, so it pulls the row.
					holder, _ := s.Index(chain[1])
					holder.Table.Set(key, "D9", 1)
				}
				var seqs []uint64
				var target *legDrop
				for _, n := range s.IndexNodes() {
					w := &legDrop{node: n, seqs: &seqs}
					if n.Addr() == chain[pos.at] {
						w.match = func(method string, req simnet.Payload) bool { return pos.match(chain, method, req) }
						w.afterRun, target = pos.afterRun, w
					}
					s.Net().Register(n.Addr(), w)
				}
				before := s.Net().Metrics()
				done, err := s.Publish("D2", triples, now)
				if err != nil {
					t.Fatal(err)
				}
				if !target.dropped {
					t.Fatalf("no leg lost at %s", chain[pos.at])
				}
				if len(seqs) == 0 {
					t.Fatal("no put_batch reached an index node")
				}
				resent := 0
				for i, seq := range seqs {
					if slices.Contains(seqs[:i], seq) {
						resent++
					}
				}
				switch {
				case pos.name == "stale-row pull":
					if resent != 0 {
						t.Errorf("%d put_batch re-sends for a lost pull, want 0: the holder re-sends the pull", resent)
					}
					if n := s.Net().Metrics().Sub(before).PerDirection[simnet.DirRequest][MethodReplicaRepair].Messages; n != 2 {
						t.Errorf("%d replica_repair requests, want the lost one and its re-send", n)
					}
				case resent != 1:
					t.Errorf("put_batch sequence numbers %v: want exactly one re-sent under its Seq", seqs)
				case done-now < simnet.VTime(s.Net().Config().FailTimeout):
					t.Errorf("publication took %v with a lost leg, less than FailTimeout", done-now)
				}
				checkRebuilt(t, s, label, distinctKeys(triples, s.Config().Bits), done)
			})
		}
	}
}

// chainPath renders a write chain as its sequence of nodes.
func chainPath(chain []trace.Span) []string {
	path := []string{chain[0].From}
	for _, sp := range chain {
		path = append(path, sp.To)
	}
	return path
}

// TestWriteLostOnEveryAttemptFails loses the owner's replicate leg of one
// shipment on every attempt, at Replication 2. The publisher sends that
// batch writeAttempts times under one Seq, each re-send at least
// FailTimeout after the last, and then fails the publication with a typed
// lost-message error; the owner applied the batch once, as a twin
// deployment without the loss did, and the replica holder never saw it.
func TestWriteLostOnEveryAttemptFails(t *testing.T) {
	triples := replicaTriples(12)
	twin, now := chainSystem(t, 4, 2)
	for _, d := range []simnet.Addr{"D1", "D2"} {
		var err error
		if now, err = twin.Publish(d, triples[:8], now); err != nil {
			t.Fatal(err)
		}
	}
	s, now := chainSystem(t, 4, 2)
	now, err := s.Publish("D1", triples[:8], now)
	if err != nil {
		t.Fatal(err)
	}
	key := distinctKeys(triples[:8], s.Config().Bits)[0]
	owner, _, _, err := s.ResolveKey("D2", key, now)
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := s.Index(owner)
	holder, _ := s.Index(primary.Chord.Successor().Addr)
	var seqs []uint64
	var target *legDrop
	for _, n := range s.IndexNodes() {
		w := &legDrop{node: n, seqs: &seqs}
		if n == holder {
			w.match = func(method string, req simnet.Payload) bool {
				d, ok := req.(ReplicaDelta)
				return method == MethodReplica && ok && d.From == owner
			}
			w.every, target = true, w
		}
		s.Net().Register(n.Addr(), w)
	}
	done, err := s.Publish("D2", triples[:8], now)
	if !errors.Is(err, simnet.ErrMessageLost) {
		t.Fatalf("publication with a replicate leg lost on every attempt: %v, want a lost-message error", err)
	}
	if !target.dropped {
		t.Fatalf("no replicate leg from %s lost at %s", owner, holder.Addr())
	}
	if len(seqs) == 0 {
		t.Fatal("no put_batch reached an index node")
	}
	sent := map[uint64]int{}
	for _, seq := range seqs {
		sent[seq]++
	}
	resent := 0
	for _, n := range sent {
		switch n {
		case 1:
		case writeAttempts:
			resent++
		default:
			t.Errorf("a put_batch Seq reached an owner %d times, want 1 or %d", n, writeAttempts)
		}
	}
	if resent != 1 {
		t.Errorf("put_batch sequence numbers %v: want exactly one sent %d times", seqs, writeAttempts)
	}
	if floor := simnet.VTime(writeAttempts * s.Net().Config().FailTimeout); done-now < floor {
		t.Errorf("publication failed after %v, want at least %d FailTimeouts (%v)", done-now, writeAttempts, floor)
	}
	want, _ := twin.Index(owner)
	if got := primary.Table.Get(key); !slices.Equal(got, want.Table.Get(key)) {
		t.Errorf("owner %s row of %v: %v, want %v as applied once", owner, key, got, want.Table.Get(key))
	}
	for _, p := range holder.Table.Get(key) {
		if p.Node == "D2" {
			t.Errorf("replica holder %s has D2's posting of %v, which no replicate leg delivered", holder.Addr(), key)
		}
	}
}

// transferHook wraps an index node's handler and runs edit before the node
// serves its first index.transfer, or with afterTransfer once it has served
// it: the edit lands in the join window, when the ring already routes the
// joiner's keys to it and the joiner has not yet pulled, or not yet
// merged, their rows.
type transferHook struct {
	next          simnet.Handler
	edit          func(at simnet.VTime) (simnet.VTime, error)
	afterTransfer bool
	err           error
	fired         bool
}

func (h *transferHook) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if method != MethodTransfer || h.fired {
		return h.next.HandleCall(at, method, req)
	}
	h.fired = true
	if !h.afterTransfer {
		at, h.err = h.edit(at)
		return h.next.HandleCall(at, method, req)
	}
	resp, done, err := h.next.HandleCall(at, method, req)
	if err == nil {
		done, h.err = h.edit(done)
	}
	return resp, done, err
}

// TestEditDuringJoinTransferCountsOnce publishes in the join window of a
// node J: a hook on J's successor runs D2's publication just before the
// successor serves J's index.transfer. At Replication 1 the successor
// hands J the rows it held, at 2 and 3 it sends a copy and keeps its own as
// J's first replica holder — a copy that already holds the edit, which J's
// write chain replicated to it. Either way J must count every posting
// once: the coverage monitor is clean, and every owner's row and its
// replica holders' copies equal a rebuild from the providers' graphs. The
// same holds when the edit's replicate leg to the successor is lost and
// the publisher re-sends the batch, and at Replication 1 when the edit
// retracts what D2 published before the join: J holds no posting to
// decrement yet, and the moved rows must not bring D2's postings back. Nor
// may they when D2 is dropped everywhere after the successor sent them and
// before J merged them (Sect. III-D's cleanup of a failed provider).
func TestEditDuringJoinTransferCountsOnce(t *testing.T) {
	triples := replicaTriples(40)
	edit := triples[20:]
	for _, tc := range []struct {
		replication int
		lost        bool
		retract     bool
		drop        bool
	}{{1, false, false, false}, {1, false, true, false}, {1, false, false, true}, {2, false, false, false}, {2, true, false, false}, {3, false, false, false}, {3, true, false, false}} {
		name := fmt.Sprintf("R%d", tc.replication)
		if tc.lost {
			name += " lost replicate leg"
		}
		if tc.retract {
			name += " retract"
		}
		if tc.drop {
			name += " drop"
		}
		t.Run(name, func(t *testing.T) {
			s, now := chainSystem(t, 4, tc.replication)
			mon := Arm(s, 1<<10)
			now, err := s.Publish("D1", triples[:20], now)
			if err != nil {
				t.Fatal(err)
			}
			if tc.retract || tc.drop {
				if now, err = s.Publish("D2", edit, now); err != nil {
					t.Fatal(err)
				}
			}
			// J takes the arc, up to one of the edit's keys, that holds
			// the most of them.
			keys := distinctKeys(edit, s.Config().Bits)
			var ids []chord.ID
			for _, n := range s.IndexNodes() {
				ids = append(ids, n.ID())
			}
			var joinID chord.ID
			var succ *IndexNode
			most := 0
			for _, k := range keys {
				i, taken := slices.BinarySearch(ids, k)
				if taken {
					continue
				}
				arc := chord.Arc{Start: ids[(i+len(ids)-1)%len(ids)], Owner: chord.Ref{ID: k}}
				count := 0
				for _, key := range keys {
					if arc.Contains(key) {
						count++
					}
				}
				if count > most {
					joinID, most = k, count
					succ = s.IndexNodes()[i%len(ids)]
				}
			}
			if most < 2 {
				t.Fatalf("no arc holds two of the edit's %d keys", len(keys))
			}

			var next simnet.Handler = simnet.HandlerFunc(succ.HandleCall)
			var drop *legDrop
			if tc.lost {
				drop = &legDrop{node: succ, seqs: new([]uint64), match: func(method string, req simnet.Payload) bool {
					d, ok := req.(ReplicaDelta)
					return method == MethodReplica && ok && d.From == "idx-join"
				}}
				next = drop
			}
			hook := &transferHook{next: next, afterTransfer: tc.drop, edit: func(at simnet.VTime) (simnet.VTime, error) {
				switch {
				case tc.retract:
					return s.Retract("D2", edit, at)
				case tc.drop:
					return s.DropStorageEverywhere("D2", at), nil
				}
				return s.Publish("D2", edit, at)
			}}
			s.Net().Register(succ.Addr(), hook)
			_, now, err = s.AddIndexNodeWithID("idx-join", joinID, now)
			s.Net().Register(succ.Addr(), simnet.HandlerFunc(succ.HandleCall))
			if err != nil {
				t.Fatal(err)
			}
			if !hook.fired || hook.err != nil {
				t.Fatalf("edit in the join window: ran %v, error %v", hook.fired, hook.err)
			}
			if tc.lost && !drop.dropped {
				t.Fatal("no replicate leg from idx-join lost")
			}
			if vs := mon.CheckCoverage(); len(vs) != 0 {
				t.Errorf("coverage: %d violations, first %v", len(vs), vs[0])
			}
			checkRebuilt(t, s, name, keys, now)
			t.Logf("%d of the edit's %d keys landed at idx-join", most, len(keys))
		})
	}
}
