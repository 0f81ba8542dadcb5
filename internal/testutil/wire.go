package testutil

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
)

// Encode is the wire's reference encoder (DESIGN §5). It writes v by
// reflection: a string its bytes, a bool or uint8 1 byte, an int, int32 or
// uint32 4, a uint64 or float64 8, anything else its parts. A
// trace.TraceContext writes nothing, a simnet.Bytes its value, a
// sparql.Expression its text, an eval.Table or eval.Solutions the one table
// rule; the shape table says where a type's framing differs. A new field
// is written by its kind's rule, so a SizeBytes that misses it disagrees.
func Encode(v any) []byte {
	e := &encoder{}
	e.walk(reflect.ValueOf(v))
	return e.b
}

// CheckWire reports how p's charge departs from what Encode writes for it;
// nil when they agree.
func CheckWire(p interface{ SizeBytes() int }) error {
	if got, enc := p.SizeBytes(), len(Encode(p)); got != enc {
		return fmt.Errorf("%T charged %d B, encoded in %d", p, got, enc)
	}
	return nil
}

// shape is how a field departs from the rule of its kind.
type shape int

const (
	counted     shape = iota + 1 // a 4-byte element count, then the elements
	ifNonZero                    // nothing when zero
	oneByte                      // an int written in 1 byte
	skip                         // not written: the reason is the entry's comment
	scopedUnits                  // MatchReq.Units: per unit an 8-byte header, the unit and the request's scope
	epochPerKey                  // RoutedReadReq.Epoch: once per key, when non-zero
	keyless                      // dispatchPayload.Sub: the sub-query without its units' keys
)

// shapes is the shape table, by "package.Type.Field".
var shapes = map[string]shape{
	"overlay.PostingsResp.Postings":    counted,
	"overlay.HotPostingsResp.Postings": counted,
	"overlay.StaleKeys.Keys":           counted,
	"overlay.TableRows.Rows":           counted,
	"chord.BatchFindReq.Targets":       counted,
	"chord.BatchFindResp.Nodes":        counted,
	"chord.RefList.Refs":               counted,
	"rdfpeers.TermsResp.Terms":         counted,
	"rdfpeers.RangeResp.Triples":       counted,
	"rdfpeers.TriplesPayload.Triples":  counted,
	// Nothing on the static path: the hot-key epoch, the default graph.
	"overlay.PostingsResp.Epoch": ifNonZero,
	"overlay.MatchUnit.Graph":    ifNonZero,
	// A count of replica holders left.
	"overlay.ReplicaDelta.Left": oneByte,
	// Senders, whose address travels in the leg's header.
	"overlay.RoutedReadResp.Owner": skip,
	"overlay.ReplicaDelta.From":    skip,
	// One of the reply's Nodes, written there.
	"chord.Arc.Owner": skip,
	// The simulation's bookkeeping of when each reply landed, never sent.
	"overlay.readReplies.arrived": skip,
	// Every unit is written as a request of its own would be, scope
	// included: batching saves messages, never bytes.
	"overlay.MatchReq.Units":     scopedUnits,
	"overlay.MatchReq.Dataset":   skip, // in every unit
	"overlay.MatchReq.FromNamed": skip, // in every unit
	// Likewise every key of a routed read, its epoch when non-zero.
	"overlay.RoutedReadReq.Epoch": epochPerKey,
	// The rows travel in place of the keys, which the index node projects.
	"dqp.dispatchPayload.Sub": keyless,
}

var used sync.Map // the shape-table entries some Encode has applied

// UnusedShapes lists the shape-table entries no Encode has applied yet: a
// test that encodes every payload type fails on a stale entry.
func UnusedShapes() []string {
	var out []string
	for k := range shapes {
		if _, ok := used.Load(k); !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

type encoder struct {
	b    []byte
	omit string // a field not written for the while: dispatchPayload's unit keys
}

// word writes the low width bytes of x.
func (e *encoder) word(x uint64, width int) {
	e.b = binary.LittleEndian.AppendUint64(e.b, x)[:len(e.b)+width]
}

func (e *encoder) walk(v reflect.Value) {
	switch v.Type().String() {
	case "trace.TraceContext":
		return
	case "simnet.Bytes":
		e.b = append(e.b, make([]byte, v.Int())...)
		return
	case "sparql.Expression":
		if !v.IsNil() {
			e.b = append(e.b, v.Interface().(fmt.Stringer).String()...)
		}
		return
	case "eval.Table":
		term := v.MethodByName("Term")
		e.table(v.FieldByName("Vars").Interface().([]string), int(v.FieldByName("N").Int()), func(i, c int) reflect.Value {
			return term.Call([]reflect.Value{reflect.ValueOf(i), reflect.ValueOf(c)})[0]
		})
		return
	case "eval.Solutions": // laid out as a table over the variables bound, sorted
		var vars []string
		for i := range v.Len() {
			for _, k := range v.Index(i).MapKeys() {
				if !slices.Contains(vars, k.String()) {
					vars = append(vars, k.String())
				}
			}
		}
		sort.Strings(vars)
		e.table(vars, v.Len(), func(i, c int) reflect.Value {
			if t := v.Index(i).MapIndex(reflect.ValueOf(vars[c])); t.IsValid() {
				return t
			}
			return reflect.Zero(v.Type().Elem().Elem()) // unbound
		})
		return
	}
	switch v.Kind() {
	case reflect.String:
		e.b = append(e.b, v.String()...)
	case reflect.Bool:
		e.b = append(e.b, map[bool]byte{true: 1}[v.Bool()])
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		e.word(v.Uint(), int(v.Type().Size()))
	case reflect.Int, reflect.Int32:
		e.word(uint64(v.Int()), 4)
	case reflect.Float64:
		e.word(math.Float64bits(v.Float()), 8)
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			e.walk(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			e.walk(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			e.walk(it.Key())
			e.walk(it.Value())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			key := v.Type().String() + "." + v.Type().Field(i).Name
			if s, ok := shapes[key]; ok {
				used.Store(key, true)
				e.field(s, v, v.Field(i))
			} else if key != e.omit {
				e.walk(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("testutil.Encode: no wire rule for a %s", v.Type()))
	}
}

// field writes field f of struct st by its shape.
func (e *encoder) field(s shape, st, f reflect.Value) {
	switch s {
	case counted:
		e.word(uint64(f.Len()), 4)
		e.walk(f)
	case ifNonZero:
		if !f.IsZero() {
			e.walk(f)
		}
	case oneByte:
		e.word(uint64(f.Int()), 1)
	case scopedUnits:
		for i := range f.Len() {
			e.word(0, 8)
			e.walk(f.Index(i))
			e.walk(st.FieldByName("Dataset"))
			e.walk(st.FieldByName("FromNamed"))
		}
	case epochPerKey:
		for range st.FieldByName("Keys").Len() {
			e.field(ifNonZero, st, f)
		}
	case keyless:
		e.omit = "overlay.MatchUnit.Keys"
		e.walk(f)
		e.omit = ""
	}
}

// table writes n rows of term cells over vars by the one table rule
// (eval/dict.go): the row count, the cell width, the names of the columns
// some row binds, each distinct bound term once, and an index per cell of
// those columns, 0 for an unbound cell. It counts the distinct terms with
// a map of its own, never a table's dictionary, so a term held twice in
// one, or a stale one, shows as a mismatch.
func (e *encoder) table(vars []string, n int, cell func(i, c int) reflect.Value) {
	terms := make([]reflect.Value, 0, n*len(vars)) // row-major
	bound := make([]bool, len(vars))               // the columns that travel
	for i := range n {
		for c := range vars {
			terms = append(terms, cell(i, c))
			bound[c] = bound[c] || !terms[len(terms)-1].IsZero()
		}
	}
	index := map[any]uint32{} // term → 1-based position in dict
	var dict []reflect.Value
	var cells []uint32
	for k, t := range terms {
		if !bound[k%len(vars)] {
			continue
		}
		i := index[t.Interface()]
		if i == 0 && !t.IsZero() {
			dict = append(dict, t)
			i = uint32(len(dict))
			index[t.Interface()] = i
		}
		cells = append(cells, i)
	}
	width := 1 // the fewest bytes that hold len(dict) + 1 values
	for len(dict) >= 1<<(8*width) {
		width *= 2
	}
	e.word(uint64(n), 4)
	e.word(uint64(width), 1)
	for c, v := range vars {
		if bound[c] {
			e.b = append(e.b, v...)
		}
	}
	for _, t := range dict {
		e.walk(t)
	}
	for _, i := range cells {
		e.word(uint64(i), width)
	}
}
