package main

import (
	"fmt"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
)

// translate parses a query and returns its unoptimized algebra — the form
// the centralized oracle evaluates.
func translate(query string) (algebra.Op, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	return op, nil
}

// oracleEval answers a query centrally, over the union of every
// provider's triples: the reference every distributed answer is held to.
func oracleEval(union *rdf.Graph, query string) (eval.Solutions, error) {
	op, err := translate(query)
	if err != nil {
		return nil, err
	}
	return eval.Eval(op, union)
}

// sameMultiset reports whether two solution sequences hold the same
// solutions the same number of times, in any order.
func sameMultiset(a, b eval.Solutions) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, s := range a {
		count[s.Key()]++
	}
	for _, s := range b {
		k := s.Key()
		if count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}
