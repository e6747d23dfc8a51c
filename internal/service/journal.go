package service

import (
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The job journal makes accepted-but-unfinished jobs survive a process
// death: every registered job writes one JSON file under
// CheckpointDir/jobs, removed when the job reaches a terminal state. On
// boot with Config.Resume, recoverJournal resubmits every journaled request
// (under fresh job IDs — clients polling the old IDs are pointed at a dead
// process anyway). Combined with the sweep row checkpoints in the same
// directory, a resubmitted sweep re-simulates only the rows the dead
// process had not finished.
//
// The replay discipline is at-most-once: an entry's file is removed before
// its request is resubmitted, so a crash mid-recovery loses that one job
// rather than ever duplicating it.

// journalEntry is one journaled job. The full Request is embedded, so
// tenant and spec survive verbatim.
type journalEntry struct {
	ID        string    `json:"id"`
	Request   *Request  `json:"request"`
	Submitted time.Time `json:"submitted"`
}

// journalAdd persists j's request; best-effort (a failed write costs the
// job its restart durability, nothing else). Never called under s.mu.
func (s *Server) journalAdd(j *job) {
	if s.journalDir == "" {
		return
	}
	data, err := json.Marshal(journalEntry{ID: j.id, Request: j.req, Submitted: j.submitted})
	if err != nil {
		return
	}
	path := filepath.Join(s.journalDir, j.id+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.logger.LogAttrs(j.ctx, slog.LevelWarn, "job journal write failed",
			slog.String("error", err.Error()))
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		s.logger.LogAttrs(j.ctx, slog.LevelWarn, "job journal write failed",
			slog.String("error", err.Error()))
	}
}

// journalRemove drops a finishing job's entry, first waiting until submit
// has written it; removing a job that was never journaled (or already
// removed) is a no-op.
func (s *Server) journalRemove(j *job) {
	if s.journalDir == "" {
		return
	}
	if j.journaled != nil {
		<-j.journaled
	}
	os.Remove(filepath.Join(s.journalDir, j.id+".json"))
}

// recoverJournal resubmits every journaled job from a previous process, in
// journal-file order (job IDs sort by submission order). Entries are
// removed before resubmission (at-most-once), and the resubmissions bypass
// tenant quotas — the work was admitted once already.
func (s *Server) recoverJournal() {
	entries, err := os.ReadDir(s.journalDir)
	if err != nil {
		return
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	recovered := 0
	for _, name := range names {
		path := filepath.Join(s.journalDir, name)
		data, err := os.ReadFile(path)
		os.Remove(path) // at-most-once: never resubmit the same entry twice
		if err != nil {
			continue
		}
		var je journalEntry
		if json.Unmarshal(data, &je) != nil || je.Request == nil {
			continue
		}
		if _, err := s.submit(s.baseCtx, je.Request, false, true); err != nil {
			s.logger.LogAttrs(s.baseCtx, slog.LevelWarn, "journaled job not recovered",
				slog.String("old_job_id", je.ID), slog.String("error", err.Error()))
			continue
		}
		recovered++
	}
	if recovered > 0 {
		s.logger.LogAttrs(s.baseCtx, slog.LevelInfo, "journaled jobs recovered",
			slog.Int("count", recovered))
	}
}
