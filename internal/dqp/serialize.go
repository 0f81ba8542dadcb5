package dqp

import (
	"io"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql/results"
)

// WriteJSON serializes the result in the W3C SPARQL 1.1 Query Results JSON
// format (boolean form for ASK results).
func (r *Result) WriteJSON(w io.Writer) error {
	if r.IsAsk {
		return results.WriteBooleanJSON(w, r.Ask)
	}
	return results.WriteJSON(w, r.Vars, r.Solutions)
}

// WriteCSV serializes a SELECT result in SPARQL 1.1 CSV.
func (r *Result) WriteCSV(w io.Writer) error {
	return results.WriteCSV(w, r.Vars, r.Solutions)
}

// WriteTSV serializes a SELECT result in SPARQL 1.1 TSV.
func (r *Result) WriteTSV(w io.Writer) error {
	return results.WriteTSV(w, r.Vars, r.Solutions)
}

// WriteNTriples serializes a CONSTRUCT/DESCRIBE result as N-Triples.
func (r *Result) WriteNTriples(w io.Writer) error {
	return rdf.WriteNTriples(w, r.Triples)
}
