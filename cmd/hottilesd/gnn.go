package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	hottiles "repro"
	"repro/internal/obs"
)

// GNN-plane observability, on the same /metrics exposition.
var (
	gnnRequests = obs.NewCounter("hottilesd.gnn.requests")
	gnnErrors   = obs.NewCounter("hottilesd.gnn.errors")
	gnnLatency  = obs.NewHistogram("hottilesd.gnn.ns")
)

// gnnMaxLayers bounds the ?layers= parameter so one request cannot hold a
// drain hostage with an arbitrarily long layer loop.
const gnnMaxLayers = 64

// gnnResponse is the POST /gnn reply: simulated per-layer timing and a
// content hash of the final feature matrix, so a client (or the drain test)
// can check the inference completed without shipping N×K floats.
type gnnResponse struct {
	Hash         string    `json:"hash"`
	Layers       int       `json:"layers"`
	LayerTimes   []float64 `json:"layer_times"`
	SimTotal     float64   `json:"sim_total"`
	OutputSHA256 string    `json:"output_sha256"`
}

// handleGNN is POST /gnn?layers=N: upload a MatrixMarket adjacency matrix
// and run a multi-layer GNN forward pass on it. The preprocessing plan is
// content-addressed with exactly the same hash as POST /plan, so a matrix
// whose plan was already built (or is being built right now) by either
// endpoint reuses it — train once with /plan, infer many times with /gnn
// (§VI-B). Only the plan build passes through the store's admission gate;
// the layer simulation itself is cheap and runs per request with
// deterministic features seeded by the daemon configuration.
func (s *server) handleGNN(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	gnnRequests.Inc()
	if s.cfg.kernel != hottiles.KernelSpMM {
		gnnErrors.Inc()
		http.Error(w, "hottilesd: /gnn requires a daemon configured for spmm, running "+s.cfg.kernelName,
			http.StatusBadRequest)
		return
	}
	layers := 2
	if v := r.URL.Query().Get("layers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > gnnMaxLayers {
			gnnErrors.Inc()
			http.Error(w, fmt.Sprintf("hottilesd: layers must be in [1, %d]", gnnMaxLayers),
				http.StatusBadRequest)
			return
		}
		layers = n
	}
	body, ok := s.readUpload(w, r)
	if !ok {
		gnnErrors.Inc()
		return
	}
	hash := s.planHash(body)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.reqTimeout)
	defer cancel()
	planBytes, err := s.store.Get(ctx, hash, func(ctx context.Context) ([]byte, error) {
		return s.buildPlan(ctx, body)
	})
	if err != nil {
		gnnErrors.Inc()
		s.planError(w, r, err)
		return
	}
	resp, err := s.runGNN(ctx, hash, planBytes, layers)
	if err != nil {
		gnnErrors.Inc()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.planError(w, r, err)
			return
		}
		http.Error(w, "hottilesd: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Plan-Hash", hash)
	enc := json.NewEncoder(w)
	enc.Encode(resp)
	gnnLatency.ObserveSince(t0)
}

// runGNN deserializes the cached plan and chains the layers over it with
// deterministic features: the daemon seed fixes the random matrix, so two
// requests for the same upload and layer count produce identical responses.
func (s *server) runGNN(ctx context.Context, hash string, planBytes []byte, layers int) (*gnnResponse, error) {
	plan, err := hottiles.ReadPlan(bytes.NewReader(planBytes))
	if err != nil {
		return nil, fmt.Errorf("cached plan corrupt: %w", err)
	}
	a := s.cfg.arch
	rng := rand.New(rand.NewSource(s.cfg.seed))
	features := hottiles.NewDense(plan.Grid.N, a.K)
	for i := range features.Data {
		features.Data[i] = rng.Float64()*2 - 1
	}
	res, err := hottiles.RunGNNWithPlan(ctx, plan, &a, features, hottiles.GNNConfig{
		Layers:    layers,
		OpsPerMAC: s.cfg.opsPerMAC,
	})
	if err != nil {
		return nil, err
	}
	return &gnnResponse{
		Hash:         hash,
		Layers:       layers,
		LayerTimes:   res.LayerTimes,
		SimTotal:     res.SimTotal,
		OutputSHA256: outputSHA256(res.Output.Data),
	}, nil
}

// outputSHA256 is the hex SHA-256 of values as consecutive little-endian
// float64 bit patterns. The values are encoded a block at a time into one
// reused buffer, so the hash sees a few large writes rather than one
// 8-byte write per value.
func outputSHA256(values []float64) string {
	h := sha256.New()
	var buf [4096]byte
	for len(values) > 0 {
		n := min(len(values), len(buf)/8)
		for i, v := range values[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		values = values[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}
