package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// countReq and countResp are the wire forms of POST /v1/count, declared
// here from the documented JSON so the harness reads what a client reads,
// not the server's own structs.
type countReq struct {
	SQL      string         `json:"sql"`
	Params   map[string]any `json:"params,omitempty"`
	Method   string         `json:"method,omitempty"`
	Budget   float64        `json:"budget,omitempty"`
	Interval string         `json:"interval,omitempty"`
	Seed     uint64         `json:"seed"`
	NoCache  bool           `json:"no_cache,omitempty"`
	Explain  bool           `json:"explain,omitempty"`
}

type groupRow struct {
	Key      []string `json:"key"`
	Objects  int      `json:"objects"`
	Estimate float64  `json:"estimate"`
	CILo     float64  `json:"ci_lo"`
	CIHi     float64  `json:"ci_hi"`
	HasCI    bool     `json:"has_ci"`
	Sampled  int      `json:"sampled"`
}

type countResp struct {
	Fingerprint string     `json:"fingerprint"`
	Method      string     `json:"method"`
	Interval    string     `json:"interval"`
	Objects     int        `json:"objects"`
	Budget      int        `json:"budget"`
	Estimate    float64    `json:"estimate"`
	CILo        float64    `json:"ci_lo"`
	CIHi        float64    `json:"ci_hi"`
	HasCI       bool       `json:"has_ci"`
	Evals       int64      `json:"evals"`
	Groups      []groupRow `json:"groups"`
	Seed        uint64     `json:"seed"`
	DurationMS  float64    `json:"duration_ms"`
	PredicateMS float64    `json:"predicate_ms"`
	Reuse       string     `json:"reuse"`
	Shards      int        `json:"shards"`
	Degraded    bool       `json:"degraded"`
	Cached      bool       `json:"cached"`
	Trace       *span      `json:"trace"`
}

// postCount sends one count request and decodes the reply.
func postCount(ctx context.Context, hc *http.Client, base string, req *countReq) (*countResp, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/count", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/count: %s: %s", resp.Status, raw)
	}
	var out countResp
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decoding count response: %w", err)
	}
	return &out, nil
}

// answerFromHTTP reduces a served answer; withEvals as in seal.
func answerFromHTTP(r *countResp, truth float64, byRegion map[string]int, wantN int, withEvals bool) (*answer, error) {
	if r.Degraded {
		return nil, fmt.Errorf("degraded answer")
	}
	a := &answer{
		estimate: r.Estimate,
		truth:    truth,
		objects:  r.Objects,
		wantN:    wantN,
		evals:    r.Evals,
		budget:   r.Budget,
		slack:    groupTopUp * len(r.Groups),
	}
	if len(r.Groups) == 0 {
		a.intervals = []interval{{est: r.Estimate, lo: r.CILo, hi: r.CIHi, hasCI: r.HasCI, objects: r.Objects, truth: truth}}
	}
	seen := 0
	for _, g := range r.Groups {
		if len(g.Key) != 1 {
			return nil, fmt.Errorf("group key %v: want one column", g.Key)
		}
		a.intervals = append(a.intervals, interval{
			key: g.Key[0], est: g.Estimate, lo: g.CILo, hi: g.CIHi, hasCI: g.HasCI,
			objects: g.Objects, sampled: g.Sampled, truth: float64(byRegion[g.Key[0]]),
		})
		seen += g.Objects
	}
	if len(r.Groups) > 0 && seen != r.Objects {
		return nil, fmt.Errorf("groups hold %d objects, total says %d", seen, r.Objects)
	}
	a.seal(r.Method, r.Fingerprint, withEvals)
	return a, nil
}

// crossCheckHTTP compares the brute-force truth of each base variant with
// the server's own exact answer (method "oracle", result cache bypassed).
func crossCheckHTTP(ctx context.Context, hc *http.Client, base string, fix *sqlFixture, counted func()) error {
	for k := range kindSQL {
		v := variant{kind: queryKind(k)}
		want, byRegion := fix.truth(v)
		r, err := postCount(ctx, hc, base, &countReq{SQL: kindSQL[k], Params: fix.params(v), Method: "oracle", NoCache: true})
		if err != nil {
			return err
		}
		counted()
		if r.Estimate != want || r.Objects != fix.n {
			return fmt.Errorf("ground truth mismatch: query kind %d: brute force %v of %d, server's oracle %v of %d",
				k, want, fix.n, r.Estimate, r.Objects)
		}
		for _, g := range r.Groups {
			if int(g.Estimate) != byRegion[g.Key[0]] {
				return fmt.Errorf("ground truth mismatch: region %s: brute force %d, server's oracle %v",
					g.Key[0], byRegion[g.Key[0]], g.Estimate)
			}
		}
	}
	return nil
}
