package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"oic/pkg/oic"
)

func TestFleetEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})

	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", Policy: oic.PolicyAlwaysRun,
		ComputeBudget: 2, Size: 8, Seed: 1,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if fi.ID == "" || fi.Sessions != 8 || fi.Budget != 2 {
		t.Fatalf("create info: %+v", fi)
	}
	if fi.MaxSkipBudget < 1 {
		t.Fatalf("MaxSkipBudget = %d, want ≥ 1", fi.MaxSkipBudget)
	}

	// Five zero-disturbance ticks: with always-run and budget 2, six of
	// eight members shed every tick while they stay inside X′.
	var tr oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 5}, &tr); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	if len(tr.Reports) != 5 {
		t.Fatalf("got %d reports, want 5", len(tr.Reports))
	}
	for i, rep := range tr.Reports {
		if rep.Sessions != 8 {
			t.Fatalf("report %d: sessions %d", i, rep.Sessions)
		}
		if rep.Violations != 0 {
			t.Fatalf("report %d: %d violations", i, rep.Violations)
		}
		if rep.Computes > 2 && rep.Overrun == 0 {
			t.Fatalf("report %d: computes %d over budget without overrun", i, rep.Computes)
		}
	}

	// Single tick with explicit disturbances for two members.
	var single oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		WS: map[int][]float64{0: {0.5, 0}, 1: {-0.5, 0}},
	}, &single); st != http.StatusOK {
		t.Fatalf("tick ws: status %d", st)
	}

	// Admit a ninth member, inspect it, evict it.
	var mi oic.FleetMemberInfo
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/sessions", oic.FleetAdmitRequest{Seed: 9}, &mi); st != http.StatusCreated {
		t.Fatalf("admit: status %d", st)
	}
	if mi.T != 0 || mi.SkipBudget < 1 {
		t.Fatalf("admitted member: %+v", mi)
	}
	var got oic.FleetMemberInfo
	if st := c.do("GET", fmt.Sprintf("/v1/fleets/%s/sessions/%d", fi.ID, mi.ID), nil, &got); st != http.StatusOK {
		t.Fatalf("member get: status %d", st)
	}
	if st := c.do("DELETE", fmt.Sprintf("/v1/fleets/%s/sessions/%d", fi.ID, mi.ID), nil, nil); st != http.StatusOK {
		t.Fatalf("member delete: status %d", st)
	}
	if st := c.do("GET", fmt.Sprintf("/v1/fleets/%s/sessions/%d", fi.ID, mi.ID), nil, nil); st != http.StatusNotFound {
		t.Fatalf("member get after evict: status %d, want 404", st)
	}

	// Stats reflect the six executed ticks.
	var snap oic.FleetInfo
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, &snap); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	if snap.Ticks != 6 || snap.Sessions != 8 || snap.Violations != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.ReclaimedRatio <= 0.5 {
		t.Fatalf("reclaimed ratio %.2f, want > 0.5 (budget 2 of 8 always-run)", snap.ReclaimedRatio)
	}

	var closed oic.FleetInfo
	if st := c.do("DELETE", "/v1/fleets/"+fi.ID, nil, &closed); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	if !closed.Closed {
		t.Fatalf("delete response not marked closed: %+v", closed)
	}
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", st)
	}
}

func TestFleetValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  oic.CreateFleetRequest
		want int
	}{
		{"missing plant", oic.CreateFleetRequest{}, http.StatusBadRequest},
		{"unknown plant", oic.CreateFleetRequest{Plant: "nope"}, http.StatusNotFound},
		{"oversized max_sessions", oic.CreateFleetRequest{Plant: "acc", MaxSessions: maxFleetSessions + 1}, http.StatusBadRequest},
		{"size over max", oic.CreateFleetRequest{Plant: "acc", MaxSessions: 4, Size: 5}, http.StatusBadRequest},
		{"negative budget", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: -1}, http.StatusBadRequest},
		{"negative workers", oic.CreateFleetRequest{Plant: "acc", Workers: -1}, http.StatusBadRequest},
		// The journal's fleet-open record holds these as u32.
		{"budget over u32", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 1<<32 + 96}, http.StatusBadRequest},
		{"workers over u32", oic.CreateFleetRequest{Plant: "acc", Workers: 1<<32 + 2}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er oic.ErrorResponse
		if st := c.do("POST", "/v1/fleets", tc.req, &er); st != tc.want {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, st, tc.want, er)
		}
	}

	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 2, Seed: 1}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: maxTicksPerReq + 1}, nil); st != http.StatusBadRequest {
		t.Fatalf("oversized ticks: status %d, want 400", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		Ticks: 2, WS: map[int][]float64{0: {0, 0}},
	}, nil); st != http.StatusBadRequest {
		t.Fatalf("ws with ticks>1: status %d, want 400", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		WS: map[int][]float64{99: {0, 0}},
	}, nil); st != http.StatusNotFound {
		t.Fatalf("unknown member in ws: status %d, want 404", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		WS: map[int][]float64{0: {1}},
	}, nil); st != http.StatusBadRequest {
		t.Fatalf("short disturbance: status %d, want 400", st)
	}
	if st := c.do("GET", "/v1/fleets/"+fi.ID+"/sessions/abc", nil, nil); st != http.StatusBadRequest {
		t.Fatalf("non-integer member id: status %d, want 400", st)
	}
	if st := c.do("POST", "/v1/fleets/nope/tick", nil, nil); st != http.StatusNotFound {
		t.Fatalf("unknown fleet tick: status %d, want 404", st)
	}
}

func TestFleetCapacity(t *testing.T) {
	_, c := newTestServer(t, Config{MaxFleets: 1})
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc"}, nil); st != http.StatusCreated {
		t.Fatalf("first create: status %d", st)
	}
	var er oic.ErrorResponse
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc"}, &er); st != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429 (%+v)", st, er)
	}
	if er.Code != "capacity" {
		t.Fatalf("error code %q, want capacity", er.Code)
	}
}

func TestFleetAdmissionFullOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", MaxSessions: 2, Size: 2, Seed: 1,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var er oic.ErrorResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/sessions", oic.FleetAdmitRequest{Seed: 3}, &er); st != http.StatusTooManyRequests {
		t.Fatalf("admit past capacity: status %d (%+v)", st, er)
	}
	if er.Code != "capacity" {
		t.Fatalf("error code %q, want capacity", er.Code)
	}
}

func TestFleetEviction(t *testing.T) {
	now := time.Now()
	cfg := Config{SessionTTL: time.Minute, Now: func() time.Time { return now }}
	srv, c := newTestServer(t, cfg)
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 2, Seed: 1}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	now = now.Add(30 * time.Second)
	if n := srv.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d before TTL", n)
	}
	now = now.Add(2 * time.Minute)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("get after eviction: status %d, want 404", st)
	}
}

func TestFleetElasticOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{})

	// Validation of the elastic wire fields.
	bad := []oic.CreateFleetRequest{
		{Plant: "acc", Elastic: &oic.ElasticConfig{MaxBudget: 8}}, // no deadline
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{}},
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{MinBudget: 9, MaxBudget: 8}},
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{MaxBudget: 8, TargetMargin: time.Second}},
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{MaxBudget: maxFleetSessions + 1}},
	}
	for i, req := range bad {
		var er oic.ErrorResponse
		if st := c.do("POST", "/v1/fleets", req, &er); st != http.StatusBadRequest {
			t.Errorf("bad elastic %d: status %d, want 400 (%+v)", i, st, er)
		}
	}

	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", Policy: oic.PolicyAlwaysRun,
		ComputeBudget: 2, Size: 8, Seed: 1, MaxSessions: 16,
		TickDeadline: time.Second,
		Elastic:      &oic.ElasticConfig{MinBudget: 2, MaxBudget: 6, TargetMargin: 100 * time.Millisecond},
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var tr oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 8}, &tr); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	for i, rep := range tr.Reports {
		if rep.Violations != 0 {
			t.Fatalf("report %d: %d violations", i, rep.Violations)
		}
		if rep.NextBudget < 2 && rep.NextBudget < rep.Forced {
			t.Fatalf("report %d: NextBudget %d below bounds and floor", i, rep.NextBudget)
		}
		if rep.EffectiveMaxSessions < 8 || rep.EffectiveMaxSessions > 24 {
			t.Fatalf("report %d: EffectiveMaxSessions %d outside [½, 3/2]×16", i, rep.EffectiveMaxSessions)
		}
	}
	var snap oic.FleetInfo
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, &snap); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	// Test-box margins dwarf the 1s deadline, so the loop must have grown
	// the budget to its cap.
	if snap.Budget != 6 {
		t.Fatalf("snapshot budget %d, want MaxBudget 6 under huge margins", snap.Budget)
	}
	if snap.BudgetRaises == 0 || snap.EffectiveMaxSessions == 0 {
		t.Fatalf("controller stats missing from snapshot: %+v", snap.FleetStats)
	}

	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"oicd_fleet_budget{fleet=",
		"oicd_fleet_effective_sessions{fleet=",
		"oicd_fleet_budget_raises_total{fleet=",
		"oicd_fleet_budget_lowers_total{fleet=",
		"oicd_fleet_budget_floors_total{fleet=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestFleetElasticDefaults(t *testing.T) {
	_, c := newTestServer(t, Config{ElasticDefaults: true})

	// Deadline + finite budget, no explicit elastic → server defaults in.
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", ComputeBudget: 8, Size: 4, Seed: 1, TickDeadline: time.Second,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var tr oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 1}, &tr); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	if tr.Reports[0].NextBudget == 0 {
		t.Fatalf("-elastic default did not engage the controller: %+v", tr.Reports[0])
	}

	// No deadline → stays static even under -elastic.
	var fi2 oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", ComputeBudget: 8, Size: 4, Seed: 1,
	}, &fi2); st != http.StatusCreated {
		t.Fatalf("create static: status %d", st)
	}
	var tr2 oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi2.ID+"/tick", oic.FleetTickRequest{Ticks: 1}, &tr2); st != http.StatusOK {
		t.Fatalf("tick static: status %d", st)
	}
	if tr2.Reports[0].NextBudget != 0 {
		t.Fatalf("deadline-less fleet became elastic: %+v", tr2.Reports[0])
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", Policy: oic.PolicyAlwaysRun, ComputeBudget: 1, Size: 4, Seed: 1,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 3}, nil); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"oicd_fleets_active 1",
		"oicd_fleet_ticks_total 3",
		"oicd_fleet_steps_total 12",
		"oicd_fleet_shed_total",
		"oicd_fleet_utilization",
		"oicd_fleet_reclaimed_ratio",
		"oicd_fleet_tick_seconds_sum",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
