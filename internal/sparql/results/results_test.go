package results

import (
	"bytes"
	"strings"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql/eval"
)

func sampleSolutions() ([]string, eval.Solutions) {
	vars := []string{"x", "n", "a"}
	sols := eval.Solutions{
		{
			"x": rdf.NewIRI("http://example.org/alice"),
			"n": rdf.NewLiteral("Alice"),
			"a": rdf.NewInteger(30),
		},
		{
			"x": rdf.NewIRI("http://example.org/bob"),
			"n": rdf.NewLangLiteral("Robert", "en"),
			// a unbound
		},
		{
			"x": rdf.NewBlank("b0"),
			"n": rdf.NewLiteral("with,comma and \"quote\""),
		},
	}
	return vars, sols
}

func TestJSONRoundTrip(t *testing.T) {
	vars, sols := sampleSolutions()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, vars, sols); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"vars"`, `"bindings"`, `"uri"`, `"bnode"`, `"xml:lang": "en"`, `XMLSchema#integer`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
	gotVars, gotSols, boolean, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if boolean != nil {
		t.Error("SELECT round trip produced a boolean")
	}
	if len(gotVars) != 3 {
		t.Errorf("vars = %v", gotVars)
	}
	if len(gotSols) != len(sols) {
		t.Fatalf("rows = %d, want %d", len(gotSols), len(sols))
	}
	for i := range sols {
		if !gotSols[i].Equal(sols[i]) {
			t.Errorf("row %d = %v, want %v", i, gotSols[i], sols[i])
		}
	}
}

func TestBooleanJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBooleanJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"boolean": true`) {
		t.Errorf("output = %s", buf.String())
	}
	_, _, boolean, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if boolean == nil || !*boolean {
		t.Error("boolean round trip failed")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, _, _, err := ReadJSON(strings.NewReader(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, _, _, err := ReadJSON(strings.NewReader(`{"head":{}}`)); err == nil {
		t.Error("document without results/boolean accepted")
	}
	if _, _, _, err := ReadJSON(strings.NewReader(
		`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"weird","value":"v"}}]}}`)); err == nil {
		t.Error("unknown term type accepted")
	}
}

func TestCSV(t *testing.T) {
	vars, sols := sampleSolutions()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, vars, sols); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header + 3 rows)", len(lines))
	}
	if lines[0] != "x,n,a" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "http://example.org/alice") || !strings.Contains(lines[1], "30") {
		t.Errorf("row 1 = %q", lines[1])
	}
	// unbound cell is empty
	if !strings.HasSuffix(lines[2], ",") {
		t.Errorf("row 2 should end with empty cell: %q", lines[2])
	}
	// quoting of embedded comma/quote
	if !strings.Contains(lines[3], `"with,comma and ""quote"""`) {
		t.Errorf("row 3 = %q", lines[3])
	}
}

func TestTSV(t *testing.T) {
	vars, sols := sampleSolutions()
	var buf bytes.Buffer
	if err := WriteTSV(&buf, vars, sols); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "?x\t?n\t?a" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "<http://example.org/alice>") {
		t.Errorf("TSV should use full term syntax: %q", lines[1])
	}
	if !strings.Contains(lines[2], `"Robert"@en`) {
		t.Errorf("lang literal = %q", lines[2])
	}
}
