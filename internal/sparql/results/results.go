// Package results serializes SPARQL query results in the W3C SPARQL 1.1
// Query Results JSON Format and in CSV/TSV, so query answers can leave the
// system in standard interchange formats.
package results

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql/eval"
)

// jsonDoc mirrors the W3C SPARQL results JSON structure.
type jsonDoc struct {
	Head    jsonHead      `json:"head"`
	Boolean *bool         `json:"boolean,omitempty"`
	Results *jsonBindings `json:"results,omitempty"`
}

type jsonHead struct {
	Vars []string `json:"vars,omitempty"`
}

type jsonBindings struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func termToJSON(t rdf.Term) (jsonTerm, error) {
	switch t.Kind {
	case rdf.KindIRI:
		return jsonTerm{Type: "uri", Value: t.Value}, nil
	case rdf.KindBlank:
		return jsonTerm{Type: "bnode", Value: t.Value}, nil
	case rdf.KindLiteral:
		return jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang(), Datatype: t.Datatype()}, nil
	default:
		return jsonTerm{}, fmt.Errorf("results: cannot serialize term %v", t)
	}
}

func jsonToTerm(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.NewIRI(jt.Value), nil
	case "bnode":
		return rdf.NewBlank(jt.Value), nil
	case "literal", "typed-literal":
		switch {
		case jt.Lang != "":
			return rdf.NewLangLiteral(jt.Value, jt.Lang), nil
		case jt.Datatype != "":
			return rdf.NewTypedLiteral(jt.Value, jt.Datatype), nil
		default:
			return rdf.NewLiteral(jt.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("results: unknown term type %q", jt.Type)
	}
}

// WriteJSON writes a SELECT result in the W3C JSON format. vars fixes the
// column order; variables unbound in a row are omitted from its binding
// object, per the specification.
func WriteJSON(w io.Writer, vars []string, sols eval.Solutions) error {
	doc := jsonDoc{
		Head:    jsonHead{Vars: vars},
		Results: &jsonBindings{Bindings: make([]map[string]jsonTerm, 0, len(sols))},
	}
	for _, b := range sols {
		row := map[string]jsonTerm{}
		for v, t := range b {
			jt, err := termToJSON(t)
			if err != nil {
				return err
			}
			row[v] = jt
		}
		doc.Results.Bindings = append(doc.Results.Bindings, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteBooleanJSON writes an ASK result in the W3C JSON format.
func WriteBooleanJSON(w io.Writer, answer bool) error {
	doc := jsonDoc{Boolean: &answer}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON parses a W3C JSON results document back into variables and
// solutions (ASK documents return the boolean via the third result).
func ReadJSON(r io.Reader) ([]string, eval.Solutions, *bool, error) {
	var doc jsonDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, nil, nil, fmt.Errorf("results: %w", err)
	}
	if doc.Boolean != nil {
		return nil, nil, doc.Boolean, nil
	}
	if doc.Results == nil {
		return nil, nil, nil, fmt.Errorf("results: document has neither results nor boolean")
	}
	sols := make(eval.Solutions, 0, len(doc.Results.Bindings))
	for _, row := range doc.Results.Bindings {
		b := eval.NewBinding()
		for v, jt := range row {
			t, err := jsonToTerm(jt)
			if err != nil {
				return nil, nil, nil, err
			}
			b[v] = t
		}
		sols = append(sols, b)
	}
	return doc.Head.Vars, sols, nil, nil
}

// WriteCSV writes a SELECT result in SPARQL 1.1 CSV: a header of variable
// names and one plain-value row per solution (unbound cells empty).
func WriteCSV(w io.Writer, vars []string, sols eval.Solutions) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(vars); err != nil {
		return fmt.Errorf("results: csv: %w", err)
	}
	for _, b := range sols {
		row := make([]string, len(vars))
		for i, v := range vars {
			if t, ok := b[v]; ok {
				row[i] = t.Value
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("results: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTSV writes a SELECT result in SPARQL 1.1 TSV: header of
// '?'-prefixed variables and full term syntax per cell.
func WriteTSV(w io.Writer, vars []string, sols eval.Solutions) error {
	heads := make([]string, len(vars))
	for i, v := range vars {
		heads[i] = "?" + v
	}
	if _, err := fmt.Fprintln(w, strings.Join(heads, "\t")); err != nil {
		return err
	}
	for _, b := range sols {
		row := make([]string, len(vars))
		for i, v := range vars {
			if t, ok := b[v]; ok {
				row[i] = t.String()
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}
