package experiments

import (
	"fmt"

	"adhocshare/internal/dqp"
	"adhocshare/internal/workload"
)

// E13QoSJoinSite extends E12 to heterogeneous links — the setting that
// motivates the third-site strategy of Ye et al. (paper Sect. II). A
// fraction of the nodes gets degraded links (factor 6 slower); the QoS-
// aware policy reads the link factors and routes merges around the slow
// nodes, while the static policies ignore them.
func E13QoSJoinSite(p Params) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Caption: "QoS-aware join-site selection on heterogeneous links (extension; Ye et al.)",
		Headers: []string{"slow-nodes", "policy", "sols", "ship-KiB", "resp-ms"},
	}
	d := workload.Generate(workload.Config{
		Persons: 300, Providers: 10, AvgKnows: 4, ZipfS: 1.4, Seed: p.seed(88),
	})
	big, small := d.PopularPerson, secondTarget(d)
	selective := fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE {
  { ?x foaf:knows %s . }
  { ?x foaf:knows %s . }
}`, small, big)
	// no shared variable: the join is a cross product, so the result
	// dwarfs the operands and its trip home dominates placement
	cross := fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y WHERE {
  { ?x foaf:knows %s . }
  { ?y foaf:knows %s . }
}`, small, big)

	degradeProviders := func(dep *deployment) {
		// degrade every provider link; index nodes and the initiator's own
		// link stay nominal, so placement choices matter
		for _, st := range dep.sys.StorageNodes() {
			if st.Addr() != "D00" {
				dep.sys.Net().SetLinkFactor(st.Addr(), 6)
			}
		}
	}
	for _, scenario := range []struct {
		name string
		q    string
		slow func(dep *deployment)
	}{
		{"uniform/selective", selective, func(*deployment) {}},
		{"slow-providers/selective", selective, degradeProviders},
		{"slow-providers/cross", cross, degradeProviders},
	} {
		for _, js := range []dqp.JoinSitePolicy{
			dqp.JoinSiteMoveSmall, dqp.JoinSiteQuerySite, dqp.JoinSiteThirdSite, dqp.JoinSiteQoS,
		} {
			dep, err := buildDeployment(p, 8, d)
			if err != nil {
				return nil, err
			}
			scenario.slow(dep)
			opts := dqp.Options{
				Strategy: dqp.StrategyFreqChain, Conjunction: dqp.ConjParallelJoin,
				JoinSite: js, PushFilters: true, ReorderJoins: true,
			}
			res, stats, err := dep.runQuery(opts, "D00", scenario.q)
			if err != nil {
				return nil, err
			}
			t.AddRow(scenario.name, js.String(), len(res.Solutions),
				kb(stats.ShippedSolutionBytes()), ms(stats.ResponseTime))
		}
	}
	t.Notes = append(t.Notes,
		"with uniform links, qos picks the same sites as move-small",
		"for the cross-product query on slow provider links, qos foresees the result's trip home and merges at the healthy initiator, beating move-small (which merges at a slow provider and ships the huge result from there)",
		"this experiment is the extension the paper points at via Ye et al.: link quality folded into global query optimization")
	return t, nil
}
