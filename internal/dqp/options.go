// Package dqp is the paper's primary contribution: distributed processing
// of SPARQL queries over the hybrid P2P overlay (Sect. IV), realizing the
// Fig. 3 workflow — query parsing, transformation to SPARQL algebra,
// global query optimization, sub-query shipping with local execution at
// storage nodes, and post-processing at the query initiator.
//
// Three orthogonal knobs reproduce the execution alternatives the paper
// discusses:
//
//   - Strategy selects how one triple pattern's target storage nodes are
//     processed: Basic (parallel fan-out, Sect. IV-C "basic query
//     processing", run in rounds of one request per provider — under the
//     pipeline one round per pattern from its index node, which unions the
//     replies; under parallel-join one round of every pattern of a query
//     from the initiator, the wave), Chain
//     (the query and accumulated solutions forwarded through the target
//     list — in-network aggregation, first optimization), and FreqChain
//     (targets visited in increasing location-table frequency order with
//     the final, largest node returning directly to the initiator —
//     "further optimization").
//
//   - Conjunction selects how multi-pattern BGPs combine: Pipeline feeds
//     each pattern the partial solutions of the ones before it
//     (Sect. IV-D basic) as a distributed semi-join — the distinct values
//     of the shared variables travel to those of the pattern's targets
//     where, by the location table's frequencies, they are smaller than
//     the rows they can spare, only the pattern's own matches travel back,
//     and the join with the full rows runs where those already are;
//     ParallelJoin evaluates patterns independently and joins at an
//     assembly site — for the chains preferring a storage node shared by
//     both target sets, for basic the initiator (Sect. IV-D optimization).
//
//   - JoinSite selects where a binary merge happens when the operand sites
//     differ: MoveSmall ships the smaller multiset to the larger's site,
//     QuerySite ships both to the initiator, ThirdSite ships both to a
//     deterministic third node (Sect. II, after Cornell/Yu and Ye et al.).
package dqp

import "fmt"

// Strategy selects the per-pattern execution plan (Sect. IV-C).
type Strategy int

// Per-pattern strategies.
const (
	// StrategyBasic fans the sub-query out to all target storage nodes in
	// parallel, in rounds of one request per provider for all the round's
	// patterns listing it: lowest response time, and every reply travels
	// back. Under the pipeline each pattern is a round at its index node,
	// where the replies are unioned, and the requests carry keys, not rows,
	// target by target only where the keys are smaller than the rows they
	// can spare (unitKeyed), so reordered it ships the fewest bytes
	// (EXPERIMENTS.md E9). Under parallel-join the patterns of a query's
	// BGPs are one round from the initiator, the wave, and each BGP's are
	// joined there: the fewest messages (EXPERIMENTS.md finding 6).
	StrategyBasic Strategy = iota
	// StrategyChain forwards the sub-query along the target list, each node
	// merging its local matches into the accumulated set: in-network
	// aggregation trading response time for message count. The keys ride
	// every hop, so they go along only when that costs less than carrying
	// the rows they exclude.
	StrategyChain
	// StrategyFreqChain is StrategyChain with targets ordered by
	// increasing location-table frequency, so the node with the most
	// matching triples is visited last and its (largest) contribution
	// never travels; the final node returns directly to the initiator.
	StrategyFreqChain
)

func (s Strategy) String() string {
	switch s {
	case StrategyBasic:
		return "basic"
	case StrategyChain:
		return "chain"
	case StrategyFreqChain:
		return "freq-chain"
	default:
		return "unknown"
	}
}

// ParseStrategy maps a strategy's String spelling back to its value — the
// CLI-flag inverse of String.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("dqp: unknown strategy %q (want basic, chain or freq-chain)", name)
}

// Conjunction selects how multi-pattern BGPs are combined (Sect. IV-D).
type Conjunction int

// Conjunction modes.
const (
	// ConjPipeline evaluates patterns sequentially as a distributed
	// semi-join: a pattern is asked for the distinct projection of the
	// partial solutions onto the variables it shares with them — at the
	// targets where that projection is smaller than the rows it can spare,
	// for everything it matches at the others — and its matches are joined
	// with the full solutions at the assembly site. Under the basic
	// strategy each pattern is a round of its own, and the pipeline stops
	// at the first empty result.
	ConjPipeline Conjunction = iota
	// ConjParallelJoin evaluates each pattern over its own target set
	// independently (in parallel) and joins at an assembly site: for the
	// chains one chosen by target-set overlap when possible, for basic the
	// initiator, where its wave's replies land.
	ConjParallelJoin
)

func (c Conjunction) String() string {
	switch c {
	case ConjPipeline:
		return "pipeline"
	case ConjParallelJoin:
		return "parallel-join"
	default:
		return "unknown"
	}
}

// JoinSitePolicy selects the site of a binary merge whose operands live on
// different nodes (Sect. II).
type JoinSitePolicy int

// Join-site policies.
const (
	// JoinSiteMoveSmall ships the smaller solution multiset to the site of
	// the larger one.
	JoinSiteMoveSmall JoinSitePolicy = iota
	// JoinSiteQuerySite ships both operands to the query initiator.
	JoinSiteQuerySite
	// JoinSiteThirdSite ships both operands to a deterministically chosen
	// third node.
	JoinSiteThirdSite
	// JoinSiteQoS implements the QoS-aware selection of Ye et al. (the
	// paper's third-site reference): candidate sites are scored by the
	// simulated link-quality factors — operand shipping plus the estimated
	// result's trip to the initiator — and the cheapest site wins. With
	// uniform links it degenerates to move-small.
	JoinSiteQoS
)

func (p JoinSitePolicy) String() string {
	switch p {
	case JoinSiteMoveSmall:
		return "move-small"
	case JoinSiteQuerySite:
		return "query-site"
	case JoinSiteThirdSite:
		return "third-site"
	case JoinSiteQoS:
		return "qos"
	default:
		return "unknown"
	}
}

// Options configures one query execution.
type Options struct {
	Strategy    Strategy
	Conjunction Conjunction
	JoinSite    JoinSitePolicy
	// PushFilters enables the algebraic filter-pushing rewrite, shipping
	// applicable filter conjuncts to storage nodes with the sub-queries
	// (Sect. IV-G).
	PushFilters bool
	// ReorderJoins enables frequency-driven join reordering using the
	// location-table statistics (Sect. IV-D optimization).
	ReorderJoins bool
	// CacheLookups memoizes index resolutions at the initiator across the
	// engine's queries, skipping repeated Chord routing and location-table
	// reads (an extension beyond the paper; evaluated in E14). Cached rows
	// are invalidated when a stale storage node is observed.
	CacheLookups bool
}

// DefaultOptions is the configuration the measurements pick, not the one
// the paper calls fully optimized: basic patterns under parallel-join — each
// query one wave of store.match requests from the initiator, one per
// provider — with move-small placement, filter pushing and join reordering.
// The rule: the default is no worse than BaselineOptions on bytes, virtual
// response time and messages for every query class at join_mix scale
// (TestDefaultNoWorseThanBaselineAtJoinMixScale), and no E9 configuration
// beats it on all three columns at once (E9 at seed 0: 87.08 KiB, 24
// messages, 26.95 ms; at join_mix scale
// TestDefaultNotDominatedInE9MatrixAtJoinMixScale). The paper's freq-chain default failed the first
// condition on every class, shipping 4.4–7.5× the baseline's bytes: a chain
// carries its accumulated rows once per remaining hop, and its hops are
// sequential (EXPERIMENTS.md finding 1). The chains stay available as the
// paper describes them.
func DefaultOptions() Options {
	return Options{
		Strategy:     StrategyBasic,
		Conjunction:  ConjParallelJoin,
		JoinSite:     JoinSiteMoveSmall,
		PushFilters:  true,
		ReorderJoins: true,
	}
}

// BaselineOptions matches the paper's unoptimized basic processing.
func BaselineOptions() Options {
	return Options{
		Strategy:    StrategyBasic,
		Conjunction: ConjPipeline,
		JoinSite:    JoinSiteQuerySite,
	}
}
