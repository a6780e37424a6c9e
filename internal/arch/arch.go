// Package arch describes the three heterogeneous accelerator architectures
// of the paper's evaluation (§VI-A, Figure 9): SPADE-Sextans at the four
// Table IV system scales (plus the skewed iso-scale variants of §VIII-B),
// SPADE-Sextans+PCIe with the enhanced off-die Sextans, and PIUMA with MTP
// cold workers and STP hot workers.
//
// Substitution note (DESIGN.md §2): the benchmark matrices are scaled ~32×
// below the paper's, so the default tile size is 512 instead of 8192 and
// scratchpad capacities scale accordingly; every ratio the evaluation
// depends on (worker-to-bandwidth, hot-to-cold throughput, cache-to-tile)
// is preserved.
package arch

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/partition"
)

// Arch is a complete heterogeneous architecture description: the two worker
// pools, the shared memory system, and the simulation-level parameters the
// analytical model deliberately ignores (caches, chunk granularity).
type Arch struct {
	Name string

	Hot, Cold model.Worker

	// BWBytes is the shared main-memory bandwidth in bytes/s.
	BWBytes float64
	// AtomicRMW is true when an atomic engine lets both pools update one
	// output buffer (PIUMA), eliminating the merge step.
	AtomicRMW bool

	// TileH, TileW are the sparse-matrix tile dimensions.
	TileH, TileW int
	// K is the dense-matrix column count.
	K int

	// ColdCacheBytes/ColdCacheLine configure the per-cold-PE cache the
	// simulator models (the reuse source the model ignores, §IV-C); zero
	// disables it.
	ColdCacheBytes, ColdCacheLine int
	// SharedL2Bytes adds a shared last-level cache behind the cold workers'
	// private caches in the simulator — the "reuse through shared levels of
	// fast local memory" the paper's §X leaves to future work. Zero
	// disables it.
	SharedL2Bytes int
	// ChunkRows is the number of consecutive sparse rows a cold worker
	// processes at a time in its untiled traversal (64 for SPADE, §VII-A).
	ChunkRows int
}

// Config returns the SpMM partitioner configuration for this architecture
// with the given arithmetic-intensity factor (2 = plain SpMM).
func (a *Arch) Config(opsPerMAC float64) partition.Config {
	return a.KernelConfig(opsPerMAC, model.KernelSpMM)
}

// KernelConfig returns the partitioner configuration for kernel k. It is
// the one place a kernel's model parameters are decided: SpMV multiplies
// by a dense vector, so its K is 1 whatever the architecture's K.
func (a *Arch) KernelConfig(opsPerMAC float64, k model.Kernel) partition.Config {
	prm := model.Params{K: a.K, OpsPerMAC: opsPerMAC, Kernel: k}
	if k == model.KernelSpMV {
		prm.K = 1
	}
	return partition.Config{
		Hot:       &a.Hot,
		Cold:      &a.Cold,
		BWBytes:   a.BWBytes,
		AtomicRMW: a.AtomicRMW,
		Params:    prm,
	}
}

// Validate checks the architecture description.
func (a *Arch) Validate() error {
	if a.BWBytes <= 0 {
		return fmt.Errorf("arch %s: non-positive bandwidth", a.Name)
	}
	if a.TileH <= 0 || a.TileW <= 0 || a.K <= 0 {
		return fmt.Errorf("arch %s: invalid tiling/K", a.Name)
	}
	if a.Hot.Count > 0 {
		if err := a.Hot.Validate(); err != nil {
			return err
		}
		// §IV: tile dims must not overflow any worker's scratchpad.
		if a.Hot.ScratchpadBytes > 0 {
			need := a.TileW * a.K * a.Hot.ElemBytes
			if need > a.Hot.ScratchpadBytes {
				return fmt.Errorf("arch %s: tile width %d overflows hot scratchpad (%d > %d bytes)",
					a.Name, a.TileW, need, a.Hot.ScratchpadBytes)
			}
		}
	}
	if a.Cold.Count > 0 {
		if err := a.Cold.Validate(); err != nil {
			return err
		}
	}
	if a.Hot.Count <= 0 && a.Cold.Count <= 0 {
		return fmt.Errorf("arch %s: no workers", a.Name)
	}
	return nil
}

const (
	peFreqHz  = 0.8e9 // PE frequency for all SPADE-Sextans scales (§VII-A)
	defaultK  = 32    // dense columns, as in the paper (§VII-B)
	tileSize  = 512   // scaled stand-in for the paper's 8192 (DESIGN.md §2)
	spadeBWps = 8e9   // per-SPADE-PE sustained stream (GB/s level seen in Table VII)
	sexBWps   = 20e9  // Sextans streaming bandwidth per unit scale
)

// SpadeSextans returns the on-die SPADE(cold)+Sextans(hot) architecture at
// a Table IV system scale (1, 2, 4 or 8); scale 4 is the paper's baseline.
// Memory bandwidth stays constant across scales (205 GB/s) while worker
// counts/throughput and the Sextans scratchpad grow with scale.
func SpadeSextans(scale int) Arch {
	return SpadeSextansSkewed(scale, scale)
}

// SpadeSextansSkewed returns a SPADE-Sextans variant with independent cold
// and hot scales — the "c-h" iso-scale architectures of §VIII-B (e.g. 3-5
// has cold scale 3 and hot scale 5). A zero scale removes that pool.
func SpadeSextansSkewed(coldScale, hotScale int) Arch {
	a := Arch{
		Name:    fmt.Sprintf("SPADE-Sextans %d-%d", coldScale, hotScale),
		BWBytes: 205e9,
		TileH:   tileSize,
		TileW:   tileSize,
		K:       defaultK,
		// Table IV's 32 kB L1 per SPADE PE, scaled by the same ~16× factor
		// as the tile size and scratchpads (DESIGN.md §2) so cacheability
		// relative to the matrices is preserved.
		ColdCacheBytes: 2 << 10,
		ColdCacheLine:  64,
		ChunkRows:      64,
	}
	if coldScale > 0 {
		a.Cold = model.Worker{
			Name: "SPADE PE", Kind: model.Cold, Count: 4 * coldScale,
			FreqHz: peFreqHz, MACsPerCycle: 1,
			VisLatPerByte:  1 / spadeBWps,
			Format:         model.FormatCOO,
			DinReuse:       model.ReuseNone,
			DoutReuse:      model.ReuseInter,
			TiledTraversal: false,
			OverlapGroups:  model.FullOverlap(), // OoO non-speculative, latency tolerant
			ElemBytes:      4, IdxBytes: 4,
			MaxStreamBW: float64(4*coldScale) * spadeBWps,
		}
	}
	if hotScale > 0 {
		a.Hot = model.Worker{
			Name: "Sextans", Kind: model.Hot, Count: 1,
			FreqHz: peFreqHz, MACsPerCycle: 5 * float64(hotScale),
			VisLatPerByte:  1 / (sexBWps * float64(hotScale)),
			Format:         model.FormatCOO,
			DinReuse:       model.ReuseIntraStream,
			DoutReuse:      model.ReuseInter,
			TiledTraversal: true,
			OverlapGroups:  model.StreamOverlap(),
			ElemBytes:      4, IdxBytes: 4,
			// Scaled stand-in for Table IV's 0.5·scale MB: holds a double-
			// buffered Din tile plus the panel's Dout tile.
			ScratchpadBytes: tileSize * defaultK * 4 * 4 * hotScale / 2,
			MaxStreamBW:     sexBWps * float64(hotScale),
		}
	}
	return a
}

// SpadeSextansPCIe returns the second evaluated architecture (§VI-A(b)):
// on-chip SPADE PEs at scale 4 plus an off-die, computationally enhanced
// Sextans behind a 32 GB/s PCIe link. The enhanced Sextans processes 20
// nonzeros per cycle regardless of the kernel's arithmetic intensity
// (§VII-A), which is what makes the gSpMM intensity sweep of Figure 14
// interesting.
func SpadeSextansPCIe() Arch {
	a := SpadeSextans(4)
	a.Name = "SPADE-Sextans+PCIe"
	const pcieBW = 32e9
	a.Hot.NNZPerCycle = 20
	a.Hot.MACsPerCycle = 0
	a.Hot.VisLatPerByte = 1 / pcieBW
	a.Hot.MaxStreamBW = pcieBW
	return a
}

// CPUDSA returns the heterogeneous system the paper's §X proposes as
// future work: general-purpose CPU cores (cold workers — cache-based,
// demand access, strong latency tolerance through out-of-order execution)
// paired with an on-chip streaming accelerator in the spirit of Intel's
// Data Streaming Accelerator (hot worker — bulk streaming, no cache). The
// parameters sketch a server socket: 16 cores at 2.4 GHz with AVX-class
// SIMD, a DSA-like engine streaming at 30 GB/s, 120 GB/s of socket memory
// bandwidth, and a shared last-level cache in front of the cold workers'
// misses.
func CPUDSA() Arch {
	const coreFreq = 2.4e9
	return Arch{
		Name:    "CPU+DSA",
		BWBytes: 120e9,
		// Cache-coherent RMW on a CPU: no merge buffers needed.
		AtomicRMW:      true,
		TileH:          tileSize,
		TileW:          tileSize,
		K:              defaultK,
		ColdCacheBytes: 4 << 10, // per-core L1/L2 share, scaled like other presets
		ColdCacheLine:  64,
		SharedL2Bytes:  256 << 10,
		ChunkRows:      64,
		Cold: model.Worker{
			Name: "CPU core", Kind: model.Cold, Count: 16,
			FreqHz: coreFreq, MACsPerCycle: 2,
			VisLatPerByte:  1 / 6e9,
			Format:         model.FormatCSR,
			DinReuse:       model.ReuseNone, // demand access through caches
			DoutReuse:      model.ReuseInter,
			TiledTraversal: false,
			OverlapGroups:  model.FullOverlap(),
			ElemBytes:      4, IdxBytes: 4,
			MaxStreamBW: 96e9,
		},
		Hot: model.Worker{
			Name: "DSA", Kind: model.Hot, Count: 1,
			FreqHz: coreFreq, MACsPerCycle: 16,
			VisLatPerByte:  1 / 30e9,
			Format:         model.FormatCSR,
			DinReuse:       model.ReuseIntraStream,
			DoutReuse:      model.ReuseInter,
			TiledTraversal: true,
			OverlapGroups:  model.StreamOverlap(),
			ElemBytes:      4, IdxBytes: 4,
			ScratchpadBytes: tileSize * defaultK * 4 * 4,
			MaxStreamBW:     30e9,
		},
	}
}

// PIUMA returns the third evaluated architecture (§VI-A(c)): 4 MTP cold
// workers and 2 STP hot workers sharing the memory subsystem, CSR-like
// formats, double-precision values, and an atomic engine that removes the
// merge step so the pools always run in parallel with only the Parallel
// heuristics considered.
func PIUMA() Arch {
	const (
		freq  = 1.0e9
		mtpBW = 5e9
		stpBW = 24e9 // STP + DMA engines exploit memory-level parallelism
	)
	return Arch{
		Name:           "PIUMA",
		BWBytes:        96e9,
		AtomicRMW:      true,
		TileH:          tileSize,
		TileW:          tileSize,
		K:              defaultK,
		ColdCacheBytes: 1 << 10, // MTP cache, scaled like the SPADE L1
		ColdCacheLine:  64,
		ChunkRows:      64,
		Cold: model.Worker{
			Name: "PIUMA MTP", Kind: model.Cold, Count: 4,
			FreqHz: freq, MACsPerCycle: 1,
			VisLatPerByte:  1 / mtpBW,
			Format:         model.FormatCSR,
			DinReuse:       model.ReuseNone,
			DoutReuse:      model.ReuseInter,
			TiledTraversal: false,
			OverlapGroups:  model.FullOverlap(), // fine-grained multithreading
			ElemBytes:      8, IdxBytes: 4,
			MaxStreamBW: 4 * mtpBW,
		},
		Hot: model.Worker{
			Name: "PIUMA STP", Kind: model.Hot, Count: 2,
			FreqHz: freq, MACsPerCycle: 4,
			VisLatPerByte:  1 / stpBW,
			Format:         model.FormatCSR,
			DinReuse:       model.ReuseIntraStream,
			DoutReuse:      model.ReuseIntraDemand,
			TiledTraversal: true,
			OverlapGroups:  model.StreamOverlap(),
			ElemBytes:      8, IdxBytes: 4,
			ScratchpadBytes: tileSize * defaultK * 8 * 2,
			MaxStreamBW:     2 * stpBW,
		},
	}
}
