// Package adhocshare is a library for ad-hoc Semantic Web data sharing
// with distributed SPARQL query processing, reproducing the system of
// Zhou, v. Bochmann & Shi, "Distributed Query Processing in an Ad-Hoc
// Semantic Web Data Sharing System" (IEEE IPDPS Workshops 2013).
//
// The system is a hybrid peer-to-peer overlay: index nodes self-organize
// into a Chord ring, storage nodes keep their own RDF triples locally and
// attach to an index node. A two-level distributed index — six hash keys
// per triple (subject, predicate, object and the three pairs), each mapped
// to a location-table row with per-provider frequency counts — locates the
// storage nodes able to answer a triple pattern. SPARQL queries are
// parsed, translated to the SPARQL algebra, optimized (filter pushing,
// frequency-driven join reordering) and executed distributedly with
// selectable strategies (parallel fan-out, chained in-network aggregation,
// frequency-ordered chains) and join-site policies (move-small,
// query-site, third-site).
//
// Everything runs over a deterministic virtual-time network simulator, so
// each query returns exact message, byte and response-time costs alongside
// its solutions.
//
// Quick start:
//
//	sys := adhocshare.NewSystem(adhocshare.Config{IndexNodes: 8})
//	sys.AddProvider("alice-laptop", triples)
//	res, stats, err := sys.Query("alice-laptop",
//	    `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
//	     SELECT ?x WHERE { ?x foaf:knows <http://example.org/me> . }`)
package adhocshare

import (
	"fmt"
	"io"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// Re-exported building blocks so downstream code can construct terms and
// inspect results without reaching into internal packages.
type (
	// Term is one RDF term (IRI, literal, blank node) or query variable.
	Term = rdf.Term
	// Triple is one RDF statement or triple pattern.
	Triple = rdf.Triple
	// Graph is an indexed in-memory triple store.
	Graph = rdf.Graph
)

// Term constructors re-exported from the RDF model.
var (
	// NewIRI returns an IRI term.
	NewIRI = rdf.NewIRI
	// NewLiteral returns a plain literal term.
	NewLiteral = rdf.NewLiteral
	// NewLangLiteral returns a language-tagged literal term.
	NewLangLiteral = rdf.NewLangLiteral
	// NewTypedLiteral returns a datatyped literal term.
	NewTypedLiteral = rdf.NewTypedLiteral
	// NewInteger returns an xsd:integer literal term.
	NewInteger = rdf.NewInteger
	// NewBoolean returns an xsd:boolean literal term.
	NewBoolean = rdf.NewBoolean
	// NewVar returns a query-variable term.
	NewVar = rdf.NewVar
	// ParseNTriples reads triples in N-Triples syntax.
	ParseNTriples = rdf.ParseNTriples
	// ParseTurtle reads triples in Turtle syntax (directives, prefixed
	// names, predicate/object lists, blank-node property lists).
	ParseTurtle = rdf.ParseTurtle
)

// Strategy selects how a triple pattern's target storage nodes are
// processed (paper Sect. IV-C).
type Strategy = dqp.Strategy

// Per-pattern strategies.
const (
	// StrategyBasic is the parallel fan-out: from the index node, which
	// unions the replies, under the pipeline; from the initiator, one wave
	// per BGP, under parallel-join.
	StrategyBasic = dqp.StrategyBasic
	// StrategyChain forwards through the target list with in-network
	// aggregation.
	StrategyChain = dqp.StrategyChain
	// StrategyFreqChain is the frequency-ordered chain (largest target
	// last).
	StrategyFreqChain = dqp.StrategyFreqChain
)

// Conjunction selects how multi-pattern BGPs combine (Sect. IV-D).
type Conjunction = dqp.Conjunction

// Conjunction modes.
const (
	// ConjPipeline ships partial solutions into each pattern's execution.
	ConjPipeline = dqp.ConjPipeline
	// ConjParallelJoin evaluates patterns independently and joins at an
	// assembly site.
	ConjParallelJoin = dqp.ConjParallelJoin
)

// JoinSitePolicy selects where binary merges happen (Sect. II).
type JoinSitePolicy = dqp.JoinSitePolicy

// Join-site policies.
const (
	// JoinSiteMoveSmall ships the smaller operand.
	JoinSiteMoveSmall = dqp.JoinSiteMoveSmall
	// JoinSiteQuerySite ships both operands to the initiator.
	JoinSiteQuerySite = dqp.JoinSiteQuerySite
	// JoinSiteThirdSite ships both operands to a third node.
	JoinSiteThirdSite = dqp.JoinSiteThirdSite
	// JoinSiteQoS scores candidate sites by measured link quality
	// (Ye et al.) and picks the cheapest.
	JoinSiteQoS = dqp.JoinSiteQoS
)

// QueryOptions configures query execution; the zero value is the paper's
// basic processing. Use DefaultQueryOptions for the configuration the
// measurements pick.
type QueryOptions = dqp.Options

// DefaultQueryOptions returns the default configuration: basic patterns
// under parallel joins, each query one wave of one sub-query per provider
// from the initiator, with move-small placement, filter pushing and join
// reordering — no worse than BaselineQueryOptions on bytes, response time
// and messages across the benchmark's query classes (see
// dqp.DefaultOptions).
func DefaultQueryOptions() QueryOptions { return dqp.DefaultOptions() }

// BaselineQueryOptions returns the unoptimized basic processing.
func BaselineQueryOptions() QueryOptions { return dqp.BaselineOptions() }

// Stats reports the cost of one query execution.
type Stats = dqp.Stats

// Result is the outcome of one query.
type Result = dqp.Result

// Config parameterizes a deployment.
type Config struct {
	// IndexNodes is the number of ring (index) nodes created up front
	// (default 8). More can join later with AddIndexNode.
	IndexNodes int
	// Bits is the Chord identifier width (default 32).
	Bits uint
	// Replication is the number of copies of each index posting
	// (default 2).
	Replication int
	// BaseLatency is the per-message virtual latency (default 2ms).
	BaseLatency time.Duration
	// Bandwidth is the virtual link throughput in bytes/second
	// (default 1 MiB/s).
	Bandwidth float64
	// Query is the default query configuration, used when Query is called
	// without per-call options.
	Query QueryOptions
}

// System is a complete ad-hoc data sharing deployment: the hybrid overlay
// plus a query engine, driven in virtual time.
type System struct {
	sys     *overlay.System
	engine  *dqp.Engine
	opts    QueryOptions
	now     simnet.VTime
	engines map[string]*dqp.Engine
}

// NewSystem builds a deployment with cfg.IndexNodes index nodes already
// joined and converged.
func NewSystem(cfg Config) (*System, error) {
	if cfg.IndexNodes <= 0 {
		cfg.IndexNodes = 8
	}
	if cfg.Query == (QueryOptions{}) {
		cfg.Query = dqp.DefaultOptions()
	}
	ov := overlay.NewSystem(overlay.Config{
		Bits:        cfg.Bits,
		Replication: cfg.Replication,
		Net: simnet.Config{
			BaseLatency: cfg.BaseLatency,
			Bandwidth:   cfg.Bandwidth,
		},
	})
	s := &System{sys: ov, opts: cfg.Query, engines: map[string]*dqp.Engine{}}
	for i := 0; i < cfg.IndexNodes; i++ {
		if _, err := s.AddIndexNode(fmt.Sprintf("index-%02d", i)); err != nil {
			return nil, err
		}
	}
	s.engine = dqp.NewEngine(ov, cfg.Query)
	return s, nil
}

// Now returns the current virtual time of the deployment.
func (s *System) Now() time.Duration { return s.now.Duration() }

// Overlay exposes the underlying overlay for advanced use (metrics,
// failure injection, direct index inspection).
func (s *System) Overlay() *overlay.System { return s.sys }

// AddIndexNode joins a new index node to the ring.
func (s *System) AddIndexNode(name string) (*overlay.IndexNode, error) {
	n, done, err := s.sys.AddIndexNode(simnet.Addr(name), s.now)
	s.now = done
	if err != nil {
		return nil, err
	}
	s.now = s.sys.Converge(s.now)
	return n, nil
}

// AddProvider creates a storage node named name holding the given triples
// and publishes their index keys. The provider keeps the triples locally;
// only postings travel.
func (s *System) AddProvider(name string, triples []Triple) error {
	_, done, err := s.sys.AddStorageNode(simnet.Addr(name), s.now)
	s.now = done
	if err != nil {
		return err
	}
	return s.Publish(name, triples)
}

// Publish adds more triples to an existing provider.
func (s *System) Publish(name string, triples []Triple) error {
	done, err := s.sys.Publish(simnet.Addr(name), triples, s.now)
	s.now = done
	return err
}

// PublishReader parses N-Triples from r and publishes them at the
// provider.
func (s *System) PublishReader(name string, r io.Reader) (int, error) {
	ts, err := rdf.ParseNTriples(r)
	if err != nil {
		return 0, err
	}
	return len(ts), s.Publish(name, ts)
}

// PublishToGraph adds triples to one of the provider's named graphs
// (Sect. IV-A datasets); queries select named graphs with FROM clauses.
func (s *System) PublishToGraph(name, graphIRI string, triples []Triple) error {
	done, err := s.sys.PublishGraph(simnet.Addr(name), graphIRI, triples, s.now)
	s.now = done
	return err
}

// Republish reinstalls a provider's index postings with idempotent
// (absolute) frequencies — call it when a provider returns after a crash
// during which its postings were dropped.
func (s *System) Republish(name string) error {
	done, err := s.sys.Republish(simnet.Addr(name), s.now)
	s.now = done
	return err
}

// Retract removes triples from a provider and withdraws their postings.
func (s *System) Retract(name string, triples []Triple) error {
	done, err := s.sys.Retract(simnet.Addr(name), triples, s.now)
	s.now = done
	return err
}

// Query executes a SPARQL query issued by the named node (storage or
// index) using the system's default options.
func (s *System) Query(initiator, query string) (*Result, Stats, error) {
	return s.QueryWith(initiator, query, s.opts)
}

// QueryWith executes a query with explicit options — the knob for
// comparing execution strategies on the same deployment. Engines are kept
// per (initiator, options) so that CacheLookups persists across queries.
func (s *System) QueryWith(initiator, query string, opts QueryOptions) (*Result, Stats, error) {
	key := fmt.Sprintf("%s|%+v", initiator, opts)
	e, ok := s.engines[key]
	if !ok {
		e = dqp.NewEngine(s.sys, opts)
		s.engines[key] = e
	}
	res, stats, done, err := e.Query(simnet.Addr(initiator), query, s.now)
	s.now = done
	return res, stats, err
}

// PublishTurtle parses a Turtle document and publishes its triples at the
// provider, returning the triple count.
func (s *System) PublishTurtle(name string, r io.Reader) (int, error) {
	ts, err := rdf.ParseTurtle(r)
	if err != nil {
		return 0, err
	}
	return len(ts), s.Publish(name, ts)
}

// SetLinkFactor degrades (or upgrades) a node's link quality: 1.0 is
// nominal, larger is slower. The QoS-aware join-site policy reads these
// factors.
func (s *System) SetLinkFactor(name string, factor float64) {
	s.sys.Net().SetLinkFactor(simnet.Addr(name), factor)
}

// Explain returns the optimized algebra plan for a query.
func (s *System) Explain(query string) (string, error) {
	return s.engine.Explain(query)
}

// FailNode crashes a node abruptly (index or storage). Queries observing
// the failure drop its postings after a timeout, as Sect. III-D describes.
func (s *System) FailNode(name string) { s.sys.FailNode(simnet.Addr(name)) }

// RecoverNode brings a crashed node back.
func (s *System) RecoverNode(name string) { s.sys.RecoverNode(simnet.Addr(name)) }

// RemoveIndexGraceful departs an index node cleanly, handing its location
// table to the successor.
func (s *System) RemoveIndexGraceful(name string) error {
	done, err := s.sys.RemoveIndexGraceful(simnet.Addr(name), s.now)
	s.now = done
	return err
}

// Stabilize runs n rounds of ring maintenance (needed after failures for
// the ring to heal).
func (s *System) Stabilize(rounds int) {
	for i := 0; i < rounds; i++ {
		s.now = s.sys.StabilizeRound(s.now)
	}
	s.now = s.sys.Converge(s.now)
}

// Snapshot summarizes deployment state.
type Snapshot struct {
	IndexNodes    int
	StorageNodes  int
	TotalTriples  int
	TotalPostings int
}

// Snapshot returns current deployment statistics.
func (s *System) Snapshot() Snapshot {
	return Snapshot{
		IndexNodes:    len(s.sys.IndexNodes()),
		StorageNodes:  len(s.sys.StorageNodes()),
		TotalTriples:  s.sys.TotalTriples(),
		TotalPostings: s.sys.TotalPostings(),
	}
}
