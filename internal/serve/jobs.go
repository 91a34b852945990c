package serve

// Async job tracking: large (or explicitly async) sweeps are answered
// with a job ID immediately; clients poll GET /v1/jobs/{id} (optionally
// long-polling with ?wait=duration) and fetch the results document from
// GET /v1/jobs/{id}/results once the job completes. Retention is bounded:
// when the job map outgrows Config.MaxJobs, the oldest settled jobs (and
// their results documents) are evicted to make room — running jobs never
// are. Eviction happens only when a new job is admitted, which drain mode
// refuses, so results of drained jobs stay fetchable until shutdown.

import (
	"fmt"
	"net/http"
	"sort"
	"time"
)

type jobState int

const (
	jobRunning jobState = iota
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	}
	return "state?"
}

// job is one async request — a sweep or an exploration. Mutable fields
// are guarded by Server.mu; done closes when the job settles (the
// long-poll signal). doc is the kind-specific results document
// (*sim.ResultsFile for sweeps, *explore.Result for explorations).
type job struct {
	id      string
	kind    string // "sweep" or "explore"
	points  int
	created time.Time
	done    chan struct{}

	state   jobState
	settled time.Time // when the job left jobRunning (eviction order)
	doc     any
	err     error
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind,omitempty"`
	Status string `json:"status"`
	Points int    `json:"points"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) newJob(kind string, points int) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictSettledLocked(s.cfg.MaxJobs - 1)
	s.seq++
	j := &job{
		id:      fmt.Sprintf("j-%d", s.seq),
		kind:    kind,
		points:  points,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// evictSettledLocked drops the oldest settled jobs until at most max
// remain, bounding a long-running daemon's memory under sustained async
// load. Running jobs are never evicted (their count is already bounded by
// the admission budget), so the map may transiently exceed max when the
// backlog is all in flight.
func (s *Server) evictSettledLocked(max int) {
	over := len(s.jobs) - max
	if over <= 0 {
		return
	}
	settled := make([]*job, 0, over)
	for _, j := range s.jobs {
		if j.state != jobRunning {
			settled = append(settled, j)
		}
	}
	sort.Slice(settled, func(i, k int) bool { return settled[i].settled.Before(settled[k].settled) })
	if over > len(settled) {
		over = len(settled)
	}
	for _, j := range settled[:over] {
		delete(s.jobs, j.id)
	}
}

// finishJob settles an async job and returns its admitted points to the
// queue in one critical section, so a client that sees the job settled
// finds its points free. It is the job's release: the WaitGroup count
// drops only after the done channel closes, so Drain waits for the
// settlement too.
func (s *Server) finishJob(j *job, doc any, err error, points int) {
	s.mu.Lock()
	s.queued -= points
	j.settled = time.Now()
	if err != nil {
		j.state, j.err = jobFailed, err
	} else {
		j.state, j.doc = jobDone, doc
	}
	s.mu.Unlock()
	close(j.done)
	s.wg.Done()
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) jobStatus(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{ID: j.id, Kind: j.kind, Status: j.state.String(), Points: j.points}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func (s *Server) jobCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[string]int, 3)
	for _, j := range s.jobs {
		counts[j.state.String()]++
	}
	return counts
}

// maxLongPoll caps ?wait= so a stuck client cannot pin a handler forever.
const maxLongPoll = 30 * time.Second

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad wait duration: %v", err))
			return
		}
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, s.jobStatus(j))
}

func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	state, doc, err := j.state, j.doc, j.err
	s.mu.Unlock()
	switch state {
	case jobRunning:
		// Not ready yet: report the status with 202 so clients can poll
		// the same URL until it yields the document.
		writeJSONStatus(w, http.StatusAccepted, s.jobStatus(j))
	case jobFailed:
		httpError(w, errStatus(err), err.Error())
	case jobDone:
		writeJSON(w, doc)
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j := s.lookupJob(id); j != nil {
			out = append(out, s.jobStatus(j))
		}
	}
	writeJSON(w, out)
}
