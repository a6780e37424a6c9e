package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// compare reads two sets of untraced -out records, a base and a change,
// and judges every end-to-end metric on every workload: each side's
// median and quartiles, the pairs the change wins (a pair is one seed both
// sides ran), and a verdict against the metric's bound — improved, no
// worse, worse, or unresolved when the runs spread wider than the bound.
func compare(decl *declaration, baseGlob, changeGlob string, w io.Writer) error {
	base, err := loadRecords(baseGlob)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeGlob)
	if err != nil {
		return err
	}
	for _, m := range hostMismatches(append(slices.Clone(base), change...)) {
		fmt.Fprintln(w, "HOST MISMATCH:", m)
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tbound\tverdict\t")
	for _, wl := range decl.Workloads {
		bs, err := bySeed(base, wl.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", baseGlob, err)
		}
		cs, err := bySeed(change, wl.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", changeGlob, err)
		}
		if len(bs) == 0 || len(cs) == 0 {
			continue
		}
		for _, m := range decl.EndToEnd {
			bv, cv := values(bs, m.Name), values(cs, m.Name)
			if len(bv) < 2 || len(cv) < 2 {
				continue
			}
			v := judge(m, bv, cv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%.0f%%\t%s\t\n", wl.Name, m.Name,
				spread(v.base), spread(v.change), v.delta*100, v.wins, v.pairs, m.Bound*100, v.verdict)
		}
	}
	return tw.Flush()
}

func loadRecords(glob string) ([]*record, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	var recs []*record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			recs = append(recs, &r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no untraced records match %s", glob)
	}
	return recs, nil
}

// bySeed returns one workload's records by seed. A seed recorded twice is
// an error: the pairs would be ambiguous.
func bySeed(recs []*record, name string) (map[int64]*record, error) {
	out := map[int64]*record{}
	for _, r := range recs {
		if r.Workload != name {
			continue
		}
		if out[r.Seed] != nil {
			return nil, fmt.Errorf("two %s records of seed %d", name, r.Seed)
		}
		out[r.Seed] = r
	}
	return out, nil
}

// values returns a metric's value in each record that has it, by seed.
func values(recs map[int64]*record, metric string) map[int64]float64 {
	xs := map[int64]float64{}
	for seed, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			xs[seed] = v.Value
		}
	}
	return xs
}

// seeds returns the keys of xs in increasing order.
func seeds(xs map[int64]float64) []int64 {
	out := make([]int64, 0, len(xs))
	for seed := range xs {
		out = append(out, seed)
	}
	slices.Sort(out)
	return out
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

type verdict struct {
	base, change []float64 // every value of each side, in seed order
	delta        float64   // change against base, as a share of base; positive is worse
	wins, pairs  int       // over the seeds both sides ran
	verdict      string
}

// judge applies the bound of metric m to base and change values by seed.
// Medians and quartiles use every value of a side; wins count only the
// seeds both sides ran.
func judge(m metricDecl, baseBySeed, changeBySeed map[int64]float64) verdict {
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	var v verdict
	for _, seed := range seeds(baseBySeed) {
		v.base = append(v.base, baseBySeed[seed])
		if c, ok := changeBySeed[seed]; ok {
			v.pairs++
			if sign*(c-baseBySeed[seed]) < 0 {
				v.wins++
			}
		}
	}
	for _, seed := range seeds(changeBySeed) {
		v.change = append(v.change, changeBySeed[seed])
	}
	base, change := v.base, v.change
	bm, cm := median(base), median(change)
	v.delta = sign * (cm - bm) / bm
	bq1, bq3 := quartiles(base)
	cq1, cq3 := quartiles(change)
	noise := math.Max((bq3-bq1)/bm, (cq3-cq1)/cm)
	allBetter := slices.Max(change) < slices.Min(base)
	if sign < 0 {
		allBetter = slices.Min(change) > slices.Max(base)
	}
	switch {
	case v.delta < 0 && v.pairs > 0 && 10*v.wins >= 9*v.pairs && math.Abs(cm-bm) > bq3-bq1:
		v.verdict = "improved"
	case noise > m.Bound && !allBetter:
		v.verdict = "unresolved"
	case v.delta > m.Bound:
		v.verdict = "worse"
	default:
		v.verdict = "no worse"
	}
	return v
}

// hostMismatches lists every host field on which the records disagree.
func hostMismatches(recs []*record) []string {
	var out []string
	first := recs[0].Host
	for _, r := range recs[1:] {
		h := r.Host
		for _, f := range []struct{ name, a, b string }{
			{"nproc", fmt.Sprint(first.NProc), fmt.Sprint(h.NProc)},
			{"gomaxprocs", fmt.Sprint(first.GOMAXPROCS), fmt.Sprint(h.GOMAXPROCS)},
			{"cpu", first.CPU, h.CPU},
			{"go", first.Go, h.Go},
		} {
			if f.a != f.b {
				m := fmt.Sprintf("%s: %q vs %q", f.name, f.a, f.b)
				if !slices.Contains(out, m) {
					out = append(out, m)
				}
			}
		}
	}
	return out
}
