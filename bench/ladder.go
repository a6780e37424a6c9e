package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"

	"repro/internal/dense"
	"repro/internal/hotcore"
	"repro/internal/mm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// The daemon's default configuration, which the bench reproduces in
// process to check the daemon's responses.
const (
	daemonArch = "spade-sextans:4"
	daemonSeed = 1 // hottilesd -seed: IUnaware's draw and the GNN features
	opsPerMAC  = 2
	gnnLayers  = 2
)

// planReps is how many traced replays the ladder makes of each class's
// plan path, after one untraced warm-up.
const planReps = 3

func planOptions() hotcore.Options {
	return hotcore.Options{Strategy: hotcore.StrategyHotTiles, OpsPerMAC: opsPerMAC, Kernel: model.KernelSpMM, Seed: daemonSeed}
}

// layer runs fn as one layer call: a child span of parent named name that
// carries the bytes the call allocated. A nil parent runs fn untraced.
func layer(parent *obs.Span, name string, fn func() error) (*obs.Span, error) {
	if parent == nil {
		return nil, fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := parent.Start(name)
	err := fn()
	sp.End()
	runtime.ReadMemStats(&after)
	sp.SetAttr("alloc.bytes", strconv.FormatUint(after.TotalAlloc-before.TotalAlloc, 10))
	return sp, err
}

// buildPlan runs the layers of a /plan request in process: parse,
// preprocess, encode.
func (b *bench) buildPlan(ctx context.Context, parent *obs.Span, body []byte) (*hotcore.Prep, []byte, error) {
	var m *sparse.COO
	if _, err := layer(parent, "mm.read", func() (err error) {
		m, err = mm.Read(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, nil, err
	}
	var p *hotcore.Prep
	sp, err := layer(parent, "hotcore.preprocess", func() (err error) {
		p, err = hotcore.PreprocessCtx(ctx, m, &b.arch, planOptions())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// The pipeline times its own stages (paper Fig 18); keep them on the
	// span so the ladder can split preprocessing without tracing inside it.
	sp.SetAttr("scan.ns", strconv.FormatInt(p.Timing.Scan.Nanoseconds(), 10))
	sp.SetAttr("partition.ns", strconv.FormatInt(p.Timing.Partition.Nanoseconds(), 10))
	sp.SetAttr("format.ns", strconv.FormatInt((p.Timing.BaseFormat+p.Timing.ExtraFormat).Nanoseconds(), 10))
	var enc bytes.Buffer
	if _, err := layer(parent, "hotcore.encode", func() error { return hotcore.WritePlan(&enc, p) }); err != nil {
		return nil, nil, err
	}
	return p, enc.Bytes(), nil
}

// gnnPath runs the layers of a /gnn request that hits the plan cache in
// process: decode the plan, then the forward pass.
func (b *bench) gnnPath(ctx context.Context, parent *obs.Span, plan []byte, features *dense.Matrix) (*workload.GNNResult, error) {
	var p *hotcore.Prep
	if _, err := layer(parent, "hotcore.decode", func() (err error) {
		p, err = hotcore.ReadPlan(bytes.NewReader(plan))
		return err
	}); err != nil {
		return nil, err
	}
	var res *workload.GNNResult
	_, err := layer(parent, "workload.gnn", func() (err error) {
		res, err = workload.GNNWithPlan(ctx, p, &b.arch, features, workload.GNNConfig{Layers: gnnLayers, OpsPerMAC: opsPerMAC})
		return err
	})
	return res, err
}

// simBreakdown splits one forward pass's simulator work: unit
// construction (a run on a fresh unit cache minus a repeat), the
// timing-only engine (the repeat), functional execution (a functional run
// minus the repeat), and the reference kernel for scale.
func (b *bench) simBreakdown(parent *obs.Span, p *hotcore.Prep, features *dense.Matrix) error {
	sr := semiring.PlusTimes()
	sr.OpsPerMAC = opsPerMAC
	var units sim.UnitCache
	for _, step := range []struct {
		name   string
		timing bool
	}{{"sim.cold", true}, {"sim.engine", true}, {"sim.functional", false}} {
		if _, err := layer(parent, step.name, func() error {
			_, err := sim.Run(p.Grid, p.Partition.Hot, &b.arch, features, sim.Options{
				Serial: p.Partition.Serial, Semiring: &sr, SkipFunctional: step.timing, Units: &units,
			})
			return err
		}); err != nil {
			return err
		}
	}
	coo := p.Grid.ToCOO()
	out := dense.NewMatrix(coo.N, features.K)
	_, err := layer(parent, "dense.spmm", func() error { return dense.SpMM(coo, features, out) })
	return err
}

// gnnSet is the /gnn request set: the bodies, their plans as the bench
// builds them in process, the daemon's features for each, and the
// response every request for them must match.
type gnnSet struct {
	bodies, plans [][]byte
	features      []*dense.Matrix
	want          []gnnResponse
}

// gnnResponse is the part of hottilesd's POST /gnn reply the bench checks.
type gnnResponse struct {
	Layers       int       `json:"layers"`
	LayerTimes   []float64 `json:"layer_times"`
	SimTotal     float64   `json:"sim_total"`
	OutputSHA256 string    `json:"output_sha256"`
}

func (want *gnnResponse) matches(got *gnnResponse) bool {
	return got.Layers == want.Layers && slices.Equal(got.LayerTimes, want.LayerTimes) &&
		got.SimTotal == want.SimTotal && got.OutputSHA256 == want.OutputSHA256
}

// gnnSet builds the GNN request set on first use.
func (b *bench) gnnSet(ctx context.Context) (*gnnSet, error) {
	if b.gnn != nil {
		return b.gnn, nil
	}
	s := &gnnSet{bodies: b.gnnBodies()}
	for _, body := range s.bodies {
		p, plan, err := b.buildPlan(ctx, nil, body)
		if err != nil {
			return nil, err
		}
		features := gnnFeatures(p.Grid.N, b.arch.K)
		res, err := b.gnnPath(ctx, nil, plan, features)
		if err != nil {
			return nil, err
		}
		s.plans = append(s.plans, plan)
		s.features = append(s.features, features)
		s.want = append(s.want, gnnResponse{
			Layers: gnnLayers, LayerTimes: res.LayerTimes, SimTotal: res.SimTotal, OutputSHA256: outputSHA(res.Output),
		})
	}
	b.gnn = s
	return s, nil
}

// gnnFeatures draws the input features exactly as hottilesd does for
// every /gnn request.
func gnnFeatures(n, k int) *dense.Matrix {
	rng := rand.New(rand.NewSource(daemonSeed))
	f := dense.NewMatrix(n, k)
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
	}
	return f
}

// outputSHA hashes a feature matrix the way hottilesd reports it.
func outputSHA(m *dense.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ladder is the traced phase: every layer of the plan path, the GNN path
// and the study pass, measured the same way whatever the workload, then
// the timed phase's latency split across them.
func (b *bench) ladder(ctx context.Context) error {
	root := b.tracer.Root()
	for i, in := range b.inputs {
		body := b.inputs.body(nil, b.seed, planStream, i)
		if _, _, err := b.buildPlan(ctx, nil, body); err != nil {
			return err
		}
		for rep := 0; rep < planReps; rep++ {
			id := obs.Str("id", fmt.Sprintf("%s/%d", in.class, rep))
			req := root.Start("plan", id)
			p, plan, err := b.buildPlan(ctx, req, body)
			req.End()
			if err != nil {
				return err
			}
			req.SetAttr("plan.bytes", strconv.Itoa(len(plan)))
			// The model runs inside the pipeline's partition stage;
			// measure it apart to split that stage.
			est := root.Start("model", id)
			cfg := b.arch.Config(opsPerMAC)
			_, err = layer(est, "model.estimate", func() error {
				_, err := partition.NewEstimates(p.Grid, &cfg)
				return err
			})
			est.End()
			if err != nil {
				return err
			}
		}
	}

	// The reference runs that built the set were the GNN path's warm-up.
	set, err := b.gnnSet(ctx)
	if err != nil {
		return err
	}
	for j := range set.plans {
		id := obs.Str("id", strconv.Itoa(j))
		req := root.Start("gnn", id)
		res, err := b.gnnPath(ctx, req, set.plans[j], set.features[j])
		req.End()
		if err != nil {
			return err
		}
		b.check(outputSHA(res.Output) == set.want[j].OutputSHA256, "traced GNN run %d differs from its reference", j)
		split := root.Start("sim", id)
		err = b.simBreakdown(split, res.Plan, set.features[j])
		split.End()
		if err != nil {
			return err
		}
	}

	studyMS, err := b.studyLadder(ctx, root)
	if err != nil {
		return err
	}

	st := spanStats{}
	st.collect(b.tracer.SpanTree())
	ms := func(name string) float64 { return st.get(name).ns / float64(st.get(name).n) / 1e6 }
	attrMean := func(name, attr string) float64 { return st.get(name).attrs[attr] / float64(st.get(name).n) }
	allocMB := func(name string) float64 { return attrMean(name, "alloc.bytes") / mib }
	for _, name := range []string{"mm.read", "hotcore.preprocess", "hotcore.encode", "hotcore.decode", "workload.gnn"} {
		b.metrics[name+"_ms"] = ms(name)
		b.metrics[name+"_alloc_mb"] = allocMB(name)
	}
	b.metrics["tile.partition_ms"] = attrMean("hotcore.preprocess", "scan.ns") / 1e6
	b.metrics["model.estimate_ms"] = ms("model.estimate")
	b.metrics["partition.hottiles_ms"] = attrMean("hotcore.preprocess", "partition.ns")/1e6 - ms("model.estimate")
	b.metrics["hotcore.format_ms"] = attrMean("hotcore.preprocess", "format.ns") / 1e6
	b.metrics["hotcore.plan_mb"] = attrMean("plan", "plan.bytes") / mib
	b.metrics["sim.units_ms"] = ms("sim.cold") - ms("sim.engine")
	b.metrics["sim.engine_ms"] = ms("sim.engine")
	b.metrics["sim.functional_ms"] = ms("sim.functional") - ms("sim.engine")
	b.metrics["dense.spmm_ms"] = ms("dense.spmm")

	// Attribution: the timed phase's mean latency against the layers its
	// operations pass through. Means, not medians, so the parts add up;
	// the residual is whatever no layer accounts for (hashing, queueing,
	// HTTP, logging, process start).
	layers := map[string]float64{
		"plan": ms("mm.read") + ms("hotcore.preprocess") + ms("hotcore.encode"),
		"gnn":  ms("hotcore.decode") + ms("workload.gnn"),
		"pass": studyMS,
	}[b.opPath]
	b.metrics["op.client_ms"] = b.clientMS
	b.metrics["op.program_ms"] = b.programMS
	b.metrics["op.overhead_ms"] = b.clientMS - b.programMS
	b.metrics["op.layers_ms"] = layers
	b.metrics["op.residual_ms"] = b.clientMS - layers
	return nil
}

// spanStats sums, per span name, the count, the duration and every
// numeric attribute of a span tree.
type spanStats map[string]*spanStat

type spanStat struct {
	n     int
	ns    float64
	attrs map[string]float64
}

func (st spanStats) collect(r *obs.SpanRecord) {
	for _, c := range r.Children {
		s := st[c.Name]
		if s == nil {
			s = &spanStat{attrs: map[string]float64{}}
			st[c.Name] = s
		}
		s.n++
		s.ns += float64(c.DurationNS)
		for k, v := range c.Attrs {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				s.attrs[k] += f
			}
		}
		st.collect(c)
	}
}

// get returns the named stat, or an empty one whose means are NaN.
func (st spanStats) get(name string) *spanStat {
	if s := st[name]; s != nil {
		return s
	}
	return &spanStat{attrs: map[string]float64{}}
}
