package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Study scales (spmmsim -scale). A pass of every study at studyScale takes
// about 4.5 s on a 2-core host, half the time of spmmsim's default -scale
// 64, and keeps that scale's profile: each study's and each phase's share
// of a pass stays within 3 points, and the model estimates and engine
// steps within 6% and 12% (bench/README.md has the measurement). At -scale
// 512 the estimates drop to a quarter. The set-up pass runs every study at
// warmScale.
const (
	studyScale = 128
	warmScale  = 1024
)

// minPasses is the fewest timed passes a study run makes, however short
// its -seconds.
const minPasses = 3

// pass is one spmmsim run.
type pass struct {
	wall, cpu float64 // seconds
	rssMB     float64
	inSum     float64 // seconds: the sum of spmmsim's own "(name in …)" lines
	sha       string  // of the output with its wall-clock parts removed
}

// scales returns the timed and set-up pass scales.
func (b *bench) scales() (study, warm int) {
	if b.smoke {
		return 4 * warmScale, 4 * warmScale
	}
	return studyScale, warmScale
}

// studyPass runs `spmmsim all` once, with a run manifest when tracePath is
// set. spmmsim generates the suite with its default seed, the one the
// goldens pin: other seeds change the matrices and moved the pass time by
// ±6%.
func (b *bench) studyPass(ctx context.Context, scale int, tracePath string) (pass, error) {
	args := []string{"-scale", strconv.Itoa(scale)}
	if tracePath != "" {
		args = append(args, "-trace", tracePath)
	}
	args = append(args, "all")
	cmd := exec.CommandContext(ctx, b.spmmsimBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = childAttr()
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return pass{}, fmt.Errorf("spmmsim %s: %w\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	ru := rusageOf(cmd.ProcessState)
	inSum, norm := normalizeStudy(stdout.Bytes())
	sum := sha256.Sum256(norm)
	return pass{wall: wall, cpu: cpuSeconds(ru), rssMB: maxRSSMB(ru), inSum: inSum, sha: hex.EncodeToString(sum[:])}, nil
}

// inLine matches spmmsim's per-study timing line, "(fig10 in 24ms)".
var inLine = regexp.MustCompile(`^\((\S+) in (\S+)\)$`)

// normalizeStudy drops the wall-clock parts of spmmsim's output (the
// per-study timing lines, fig18's preprocessing-time table and the
// manifest notice), so two passes of one commit and seed compare equal.
// It returns the summed per-study times in seconds and the rest.
func normalizeStudy(out []byte) (float64, []byte) {
	var sum float64
	var norm bytes.Buffer
	inFig18 := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if m := inLine.FindStringSubmatch(line); m != nil {
			if d, err := time.ParseDuration(m[2]); err == nil {
				sum += d.Seconds()
			}
			inFig18 = false
			continue
		}
		if inFig18 || strings.HasPrefix(line, "wrote run manifest") {
			continue
		}
		inFig18 = line == "==== fig18 ===="
		norm.WriteString(line)
		norm.WriteByte('\n')
	}
	return sum, norm.Bytes()
}

// study runs the study workload: set-up passes at warmScale, then timed
// passes at studyScale for the run's seconds.
func (b *bench) study(ctx context.Context) error {
	scale, warm := b.scales()
	var setups []float64
	for i := 0; i < b.setupCount(); i++ {
		p, err := b.studyPass(ctx, warm, "")
		if err != nil {
			return err
		}
		setups = append(setups, p.wall)
	}
	b.metrics["setup_s"] = median(setups)
	b.note("set-up (spmmsim -scale %d all) %v s", warm, setups)

	var passes []pass
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < b.seconds {
		b.attempted++
		p, err := b.studyPass(ctx, scale, "")
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	elapsed := time.Since(start).Seconds()
	var walls, cpus, rss, inSums []float64
	for i, p := range passes {
		b.check(p.sha == passes[0].sha, "study output of pass %d differs from pass 0", i)
		walls = append(walls, p.wall*1000)
		cpus = append(cpus, p.cpu*1000)
		rss = append(rss, p.rssMB)
		inSums = append(inSums, p.inSum*1000)
	}
	b.studySHA = passes[0].sha
	b.studyWall = median(walls) / 1000
	b.note("study: %d passes of spmmsim -scale %d all, output sha256 %s", len(passes), scale, b.studySHA)

	b.metrics["p50_ms"] = median(walls)
	b.metrics["p95_ms"] = percentile(walls, 95)
	b.metrics["ops_per_s"] = float64(len(passes)) / elapsed
	b.metrics["peak_rss_mb"] = median(rss)
	b.metrics["cpu_ms_per_op"] = mean(cpus)
	b.opPath = "pass"
	b.clientMS = mean(walls)
	b.programMS = mean(inSums)
	// No daemon runs in this workload: its counters are zero.
	for _, name := range []string{"planstore.builds", "planstore.hits", "planstore.coalesced",
		"planstore.rejected", "planstore.hit_ratio", "runtime.alloc_mb_per_op", "runtime.gc_cycles"} {
		b.metrics[name] = 0
	}
	return nil
}

// studyPhases are the spmmsim manifest's pipeline phases; their child
// spans run on the par pool, so their sums can exceed the wall time.
var studyPhases = []string{"generate", "tile", "estimate", "exec"}

// studyLadder runs one traced pass of every study and reads its manifest.
// It returns the summed study spans in milliseconds: the layers of one
// pass.
func (b *bench) studyLadder(ctx context.Context, root *obs.Span) (float64, error) {
	scale, _ := b.scales()
	untraced, sha := b.studyWall, b.studySHA
	if b.workload != "study" {
		p, err := b.studyPass(ctx, scale, "")
		if err != nil {
			return 0, err
		}
		untraced, sha = p.wall, p.sha
	}
	path := filepath.Join(b.tmp, "spmmsim-trace.json")
	sp := root.Start("study.pass")
	p, err := b.studyPass(ctx, scale, path)
	sp.End()
	if err != nil {
		return 0, err
	}
	b.check(p.sha == sha, "traced study output differs from the untraced one")
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	m, err := obs.ReadManifest(f)
	f.Close()
	if err != nil {
		return 0, err
	}

	studies := strings.Split(m.Config["experiments"], ",")
	var sum float64
	for _, c := range m.Spans.Children {
		switch {
		case slices.Contains(studies, c.Name):
			b.metrics["study."+c.Name+"_s"] = float64(c.DurationNS) / 1e9
			sum += float64(c.DurationNS) / 1e9
		case slices.Contains(studyPhases, c.Name):
			var busy int64
			for _, cc := range c.Children {
				busy += cc.DurationNS
			}
			b.metrics["experiments."+c.Name+"_busy_s"] = float64(busy) / 1e9
		}
	}
	b.metrics["study.residual_s"] = p.wall - sum
	b.metrics["trace_overhead_pct"] = (p.wall/untraced - 1) * 100
	for _, name := range []string{"sim.engine.runs", "sim.engine.steps", "model.estimates"} {
		b.metrics[name] = float64(m.Counters[name])
	}
	hits, misses := float64(m.Counters["par.cache.hits"]), float64(m.Counters["par.cache.misses"])
	b.metrics["par.cache.hit_ratio"] = hits / (hits + misses)
	return sum * 1000, nil
}
