package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"oic/pkg/oic"
)

// Fleet endpoints: the server face of the opportunistic fleet scheduler
// (pkg/oic.Fleet, DESIGN.md §7). A fleet multiplexes up to thousands of
// sessions of one engine over a per-tick compute budget; clients drive it
// tick by tick and read the budget accounting back.
//
//	POST   /v1/fleets                    create (engine cached per config)
//	GET    /v1/fleets/{id}               stats snapshot
//	POST   /v1/fleets/{id}/tick          advance: {"ws": {...}} or {"ticks": n}
//	POST   /v1/fleets/{id}/sessions      admit one member
//	GET    /v1/fleets/{id}/sessions/{mid} member snapshot (incl. skip budget)
//	DELETE /v1/fleets/{id}/sessions/{mid} evict one member
//	DELETE /v1/fleets/{id}               close the fleet

// Bounds on client-controlled fleet cost, alongside the session bounds in
// server.go: the fleet caps bound members per fleet and ticks per request
// (a tick is O(members) monitor work plus up to budget κ computes).
const (
	maxFleetSessions = 8192
	maxTicksPerReq   = 1000
)

// fleetEntry is one live server-side fleet. The engine pointer is kept so
// snapshot and admit paths never re-resolve the engine cache (a cache miss
// would rebuild expensive artifacts for nothing).
type fleetEntry struct {
	id  string
	f   *oic.Fleet
	eng *oic.Engine
	// published is the stats snapshot of the last *completed* operation
	// (create, tick, admit, evict). /metrics scrapes read it lock-free:
	// calling Stats() at scrape time would block on the fleet mutex for
	// the whole duration of an in-flight tick, and concurrent ticks across
	// fleets would interleave mid-operation cuts into one scrape.
	published atomic.Pointer[oic.FleetStats]
	touchable
}

// publishStats stores a fresh consistent stats snapshot for scrapes.
// Call after any operation that moved the fleet's counters.
func (fe *fleetEntry) publishStats() oic.FleetStats {
	st := fe.f.Stats()
	fe.published.Store(&st)
	return st
}

// snapshotStats returns the last published snapshot without touching the
// fleet mutex (falling back to a live read only before the first publish,
// which create always performs).
func (fe *fleetEntry) snapshotStats() oic.FleetStats {
	if p := fe.published.Load(); p != nil {
		return *p
	}
	return fe.f.Stats()
}

func validateFleetCreate(req *oic.CreateFleetRequest) error {
	if req.MaxSessions < 0 || req.MaxSessions > maxFleetSessions {
		return badRequest(fmt.Sprintf("max_sessions %d outside [0, %d]", req.MaxSessions, maxFleetSessions))
	}
	limit := req.MaxSessions
	if limit == 0 {
		limit = oic.DefaultFleetSessions
	}
	if req.Size < 0 || req.Size > limit {
		return badRequest(fmt.Sprintf("size %d outside [0, max_sessions %d]", req.Size, limit))
	}
	// The journal records the fleet shape as u32 fields; a wider value
	// would be served now and recover as a different fleet.
	if req.ComputeBudget < 0 || req.ComputeBudget > math.MaxUint32 {
		return badRequest(fmt.Sprintf("compute_budget %d outside [0, %d]", req.ComputeBudget, uint32(math.MaxUint32)))
	}
	if req.Workers < 0 || req.Workers > math.MaxUint32 {
		return badRequest(fmt.Sprintf("workers %d outside [0, %d]", req.Workers, uint32(math.MaxUint32)))
	}
	if req.TickDeadline < 0 {
		return badRequest("tick_deadline_ns must be ≥ 0")
	}
	if el := req.Elastic; el != nil {
		if req.TickDeadline == 0 {
			return badRequest("elastic requires tick_deadline_ns > 0")
		}
		if el.MinBudget < 0 {
			return badRequest("elastic.min_budget must be ≥ 0")
		}
		if el.MaxBudget < 1 || el.MaxBudget > maxFleetSessions {
			return badRequest(fmt.Sprintf("elastic.max_budget %d outside [1, %d]", el.MaxBudget, maxFleetSessions))
		}
		if el.MinBudget > el.MaxBudget {
			return badRequest(fmt.Sprintf("elastic.min_budget %d > max_budget %d", el.MinBudget, el.MaxBudget))
		}
		if el.TargetMargin < 0 || el.TargetMargin >= req.TickDeadline {
			return badRequest("elastic.target_margin_ns must be in [0, tick_deadline_ns)")
		}
	}
	return nil
}

// defaultElastic derives the -elastic default bounds for a fleet that
// opted into a tick deadline and a finite budget but no explicit elastic
// config: the controller may shed down to a quarter of — or grow to 4× —
// the requested budget, regulating to the NewFleet default target margin
// (TickDeadline/5).
func defaultElastic(req *oic.CreateFleetRequest) *oic.ElasticConfig {
	if req.TickDeadline <= 0 || req.ComputeBudget <= 0 {
		return nil
	}
	min := req.ComputeBudget / 4
	if min < 1 {
		min = 1
	}
	max := req.ComputeBudget * 4
	if max > maxFleetSessions {
		max = maxFleetSessions
	}
	return &oic.ElasticConfig{MinBudget: min, MaxBudget: max}
}

func (s *Server) handleFleetCreate(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		s.fail(w, errRecovering)
		return
	}
	var req oic.CreateFleetRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.Plant == "" {
		s.fail(w, badRequest("missing plant"))
		return
	}
	sessReq := oic.CreateSessionRequest{
		Plant: req.Plant, Scenario: req.Scenario, Policy: req.Policy,
		Memory: req.Memory, Train: req.Train,
	}
	if err := validateCreate(&sessReq); err != nil {
		s.fail(w, err)
		return
	}
	if err := validateFleetCreate(&req); err != nil {
		s.fail(w, err)
		return
	}
	// Cheap capacity precheck before any expensive work (engine build,
	// sampling, admitting thousands of members); the authoritative
	// check-and-insert below still closes the race window.
	s.mu.Lock()
	full := len(s.fleets) >= s.cfg.MaxFleets
	s.mu.Unlock()
	if full {
		s.fail(w, errFleetCapacity)
		return
	}
	eng, err := s.engine(oic.Config{
		Plant: req.Plant, Scenario: req.Scenario, Policy: req.Policy,
		Memory: req.Memory, Train: req.Train,
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	elastic := req.Elastic
	if elastic == nil && s.cfg.ElasticDefaults {
		elastic = defaultElastic(&req)
	}
	fleet, err := eng.NewFleet(oic.FleetConfig{
		ComputeBudget: req.ComputeBudget,
		Workers:       req.Workers,
		MaxSessions:   req.MaxSessions,
		Degrade:       req.Degrade,
		TickDeadline:  req.TickDeadline,
		Elastic:       elastic,
		Trace:         req.Trace,
		TraceLimit:    s.cfg.TraceLimit,
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	fleet.SetFaults(s.faults)
	var x0s [][]float64
	if req.Size > 0 {
		x0s, err = eng.SampleInitialStates(req.Seed, req.Size)
		if err != nil {
			fleet.Close()
			s.fail(w, fmt.Errorf("sampling initial states: %w", err))
			return
		}
		for _, x0 := range x0s {
			if _, err := fleet.Admit(x0); err != nil {
				fleet.Close()
				s.fail(w, fmt.Errorf("admitting initial member: %w", err))
				return
			}
		}
	}

	fe := &fleetEntry{f: fleet, eng: eng}
	s.touch(fe)
	s.mu.Lock()
	if len(s.fleets) >= s.cfg.MaxFleets {
		s.mu.Unlock()
		fleet.Close()
		s.fail(w, errFleetCapacity)
		return
	}
	s.nextFleetID++
	fe.id = fmt.Sprintf("f-%d", s.nextFleetID)
	s.fleets[fe.id] = fe
	s.mu.Unlock()
	s.m.fleetsCreated.Add(1)
	// Write-ahead: the fleet-open record, the create-time admits, and the
	// member step hook land before the create is acknowledged.
	s.journalOpenFleet(fe.id, eng, fleet, x0s)
	s.journalSyncRequest()

	writeJSON(w, http.StatusCreated, s.fleetInfo(fe))
}

// fleetInfo assembles the wire snapshot of a fleet entry, republishing
// the scrape snapshot as a side effect (it computed fresh stats anyway).
// The S_k chain was compiled at fleet creation, so MaxSkipBudget never
// errors here.
func (s *Server) fleetInfo(fe *fleetEntry) oic.FleetInfo {
	info := oic.FleetInfo{ID: fe.id, FleetStats: fe.publishStats()}
	info.MaxSkipBudget, _ = fe.eng.MaxSkipBudget()
	return info
}

func (s *Server) lookupFleet(id string) (*fleetEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fe, ok := s.fleets[id]
	return fe, ok
}

func (s *Server) handleFleetGet(w http.ResponseWriter, r *http.Request) {
	fe, ok := s.lookupFleet(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	s.touch(fe)
	writeJSON(w, http.StatusOK, s.fleetInfo(fe))
}

func (s *Server) handleFleetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	fe, ok := s.fleets[id]
	if ok {
		delete(s.fleets, id)
	}
	s.mu.Unlock()
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	info := s.fleetInfo(fe)
	info.Closed = true
	fe.f.Close()
	s.journalCloseFleet(fe.id)
	s.journalSyncRequest()
	s.m.fleetsClosed.Add(1)
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleFleetTick(w http.ResponseWriter, r *http.Request) {
	fe, ok := s.lookupFleet(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	var req oic.FleetTickRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	ticks := req.Ticks
	if ticks <= 0 {
		ticks = 1
	}
	if ticks > maxTicksPerReq {
		s.fail(w, badRequest(fmt.Sprintf("ticks %d exceeds %d per request", ticks, maxTicksPerReq)))
		return
	}
	if ticks > 1 && len(req.WS) > 0 {
		s.fail(w, badRequest(`"ws" applies to a single tick; use ticks=1`))
		return
	}
	s.touch(fe)
	resp := oic.FleetTickResponse{Reports: make([]oic.TickReport, 0, ticks)}
	for i := 0; i < ticks; i++ {
		rep, err := fe.f.Tick(r.Context(), req.WS)
		if err != nil {
			s.countStepError(err)
			if len(resp.Reports) > 0 {
				// Partial progress: return what executed plus the terminal
				// error and its status, mirroring the batched-step
				// convention.
				s.journalSyncRequest()
				fe.publishStats()
				resp.Error = err.Error()
				writeJSON(w, statusForStepErr(err), resp)
				return
			}
			s.fail(w, err)
			return
		}
		// Members whose step failed terminally were evicted inside Tick;
		// the journal must agree, or recovery would try to replay them.
		for _, fe2 := range rep.Errors {
			s.journalEvict(fe.id, fe2.ID)
		}
		s.m.observeTick(rep, fe.f.Config().TickDeadline)
		resp.Reports = append(resp.Reports, rep)
	}
	// One fsync per tick request amortizes durability over every member's
	// step (SyncEveryTick); it lands before the ticks are acknowledged.
	s.journalSyncRequest()
	fe.publishStats()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFleetAdmit(w http.ResponseWriter, r *http.Request) {
	fe, ok := s.lookupFleet(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	var req oic.FleetAdmitRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	s.touch(fe)
	x0 := req.X0
	if x0 == nil {
		xs, err := fe.eng.SampleInitialStates(req.Seed, 1)
		if err != nil {
			s.fail(w, fmt.Errorf("sampling initial state: %w", err))
			return
		}
		if len(xs) == 0 {
			s.fail(w, errors.New("sampling initial state: empty sample from X'"))
			return
		}
		x0 = xs[0]
	}
	id, err := fe.f.Admit(x0)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.journalAdmit(fe.id, id, fe.eng.NX(), x0)
	s.journalSyncRequest()
	fe.publishStats()
	info, err := fe.f.Member(id)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) fleetMemberID(r *http.Request) (int, error) {
	mid, err := strconv.Atoi(r.PathValue("mid"))
	if err != nil {
		return 0, badRequest("member id must be an integer")
	}
	return mid, nil
}

func (s *Server) handleFleetMemberGet(w http.ResponseWriter, r *http.Request) {
	fe, ok := s.lookupFleet(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	mid, err := s.fleetMemberID(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.touch(fe)
	info, err := fe.f.Member(mid)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleFleetMemberDelete(w http.ResponseWriter, r *http.Request) {
	fe, ok := s.lookupFleet(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	mid, err := s.fleetMemberID(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.touch(fe)
	info, err := fe.f.Member(mid)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := fe.f.Evict(mid); err != nil {
		s.fail(w, err)
		return
	}
	s.journalEvict(fe.id, mid)
	s.journalSyncRequest()
	fe.publishStats()
	writeJSON(w, http.StatusOK, info)
}

var errFleetCapacity = errors.New("fleet capacity reached (too many live fleets)")
