// The dataset-mutation path of an incremental job: POST
// /jobs/{id}/append batch-appends CSV rows to one relation of the job's
// retained database and re-validates the discovered dependencies
// against the delta (see core.Incremental). The call is synchronous —
// the response carries the delta summary and the new epoch — and
// serialized per job, so the job's artifacts always describe a
// validated quiescent state.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"dbre/internal/core"
	"dbre/internal/csvio"
	"dbre/internal/obs"
)

// AppendRequest is the JSON payload of POST /jobs/{id}/append.
type AppendRequest struct {
	// Relation names the target relation of the job's database.
	Relation string `json:"relation"`
	// CSV is the appended extension: a header row naming the columns,
	// then data rows — the same format as JobSpec.CSV.
	CSV string `json:"csv"`
}

// DeltaCounts mirrors one phase's delta statistics in the response.
type DeltaCounts struct {
	Reused       int `json:"reused"`
	DeltaChecked int `json:"delta_checked,omitempty"`
	Refuted      int `json:"refuted,omitempty"`
	Recounted    int `json:"recounted,omitempty"`
	Escalated    int `json:"escalated,omitempty"`
	Redecided    int `json:"redecided,omitempty"`
	Broken       int `json:"broken,omitempty"`
}

// AppendStatus is the response of a completed append-and-revalidate.
type AppendStatus struct {
	ID           string `json:"id"`
	Relation     string `json:"relation"`
	AppendedRows int    `json:"appended_rows"`
	// Violations counts constraint violations tolerated in this batch.
	Violations int `json:"violations,omitempty"`
	// Epoch is the database epoch after the commit; it grows with every
	// appended row and never repeats.
	Epoch uint64 `json:"epoch"`
	// FD / IND summarize how the re-validation served its checks.
	FD  DeltaCounts `json:"fd"`
	IND DeltaCounts `json:"ind"`
	// Broken/New list dependencies the delta retracted or admitted.
	BrokenFDs  []string `json:"broken_fds,omitempty"`
	NewFDs     []string `json:"new_fds,omitempty"`
	BrokenINDs []string `json:"broken_inds,omitempty"`
	NewINDs    []string `json:"new_inds,omitempty"`
}

// handleAppend implements POST /jobs/{id}/append.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if !j.spec.Incremental {
		writeErr(w, http.StatusConflict, "job %s is not incremental; resubmit with \"incremental\": true", j.id)
		return
	}
	if st := j.getState(); st != StateDone {
		writeErr(w, http.StatusConflict, "job %s is %s; appends require a completed initial run", j.id, st)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "append exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	var req AppendRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed append: %v", err)
		return
	}
	if err := validateName("relation", req.Relation); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if strings.TrimSpace(req.CSV) == "" {
		writeErr(w, http.StatusBadRequest, "csv is required")
		return
	}

	// One mutation at a time per job; concurrent appends queue here.
	j.runMu.Lock()
	defer j.runMu.Unlock()
	j.mu.Lock()
	db, inc := j.db, j.inc
	ent := j.pool
	j.mu.Unlock()
	if ent != nil {
		// Pooled jobs mutate the resident database other jobs of this
		// dataset read; the entry's mutation lock serializes appends
		// across sibling incremental jobs.
		ent.mutMu.Lock()
		defer ent.mutMu.Unlock()
	}
	if db == nil || inc == nil {
		writeErr(w, http.StatusConflict, "job %s holds no incremental state", j.id)
		return
	}
	tab, ok := db.Table(req.Relation)
	if !ok {
		writeErr(w, http.StatusNotFound, "job %s has no relation %q", j.id, req.Relation)
		return
	}

	// Enforce the job's memory ceiling against the grown footprint before
	// committing more discovery work to it.
	ceiling := s.cfg.MaxJobBytes
	if j.spec.MaxBytes > 0 && j.spec.MaxBytes < ceiling {
		ceiling = j.spec.MaxBytes
	}
	if got := db.ApproxBytes() + int64(len(req.CSV)); ceiling > 0 && got > ceiling {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"grown footprint would reach %d bytes, job ceiling %d", got, ceiling)
		return
	}

	// Fresh tracer per mutation: the job's trace artifact describes the
	// latest validated state, spans and delta counters included. A panic
	// in the load or the re-validation fails this request alone with a
	// 500 carrying the panic text: the deferred unlocks above still run,
	// and the job keeps its last validated artifacts, which are replaced
	// below only on success.
	var (
		tracer     *obs.Tracer
		violations int
		dr         *core.DeltaReport
	)
	before := tab.Len()
	code, err := func() (code int, err error) {
		defer func() {
			if v := recover(); v != nil {
				code, err = http.StatusInternalServerError, fmt.Errorf("append panicked: %v", v)
			}
		}()
		tracer = obs.NewTracerClock("dbre", s.cfg.Clock)
		ctx := obs.NewContext(j.ctx, tracer)
		violations, err = csvio.LoadCtx(ctx, tab, strings.NewReader(req.CSV), false,
			csvio.Options{Parallelism: j.spec.Parallelism})
		if err != nil {
			return http.StatusBadRequest, fmt.Errorf("appending to %s: %w", req.Relation, err)
		}
		dr, err = inc.Revalidate(ctx)
		tracer.Finish()
		if err != nil {
			if errors.Is(err, j.ctx.Err()) && j.ctx.Err() != nil {
				return http.StatusConflict, fmt.Errorf("job %s cancelled during re-validation", j.id)
			}
			// The batch is committed but not yet validated; the warm
			// state is untouched, so a retry simply revalidates a larger
			// delta.
			return http.StatusInternalServerError, fmt.Errorf("re-validation failed: %w", err)
		}
		return http.StatusOK, nil
	}()
	if err != nil {
		writeErr(w, code, "%v", err)
		return
	}

	st := AppendStatus{
		ID:           j.id,
		Relation:     req.Relation,
		AppendedRows: tab.Len() - before,
		Violations:   violations,
		Epoch:        db.Epoch(),
		FD: DeltaCounts{Reused: dr.FD.Reused, DeltaChecked: dr.FD.DeltaChecked,
			Refuted: dr.FD.Refuted, Escalated: dr.FD.Escalated, Broken: dr.FD.Broken},
		IND: DeltaCounts{Reused: dr.IND.Reused, Recounted: dr.IND.Recounted,
			Redecided: dr.IND.Redecided},
	}
	for _, f := range dr.BrokenFDs {
		st.BrokenFDs = append(st.BrokenFDs, f.String())
	}
	for _, f := range dr.NewFDs {
		st.NewFDs = append(st.NewFDs, f.String())
	}
	for _, d := range dr.BrokenINDs {
		st.BrokenINDs = append(st.BrokenINDs, d.String())
	}
	for _, d := range dr.NewINDs {
		st.NewINDs = append(st.NewINDs, d.String())
	}

	j.mu.Lock()
	j.reportText = inc.Report().Text()
	j.tracer, j.traceJSON = tracer, nil // rendered on first fetch
	j.violations += violations
	j.epoch = st.Epoch
	j.doneAt = s.cfg.Clock() // a touched job restarts its TTL
	j.mu.Unlock()
	if ent != nil {
		// Record the grown footprint and the new epoch on the pool
		// entry. No cache invalidation is needed: the shared cache is
		// epoch-pinned, so entries built over the pre-append commit
		// point stay valid for it and extend by delta onto the new one.
		s.pool.noteMutation(ent)
	}
	writeJSON(w, http.StatusOK, st)
}
