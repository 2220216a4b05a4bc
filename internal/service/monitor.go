package service

import (
	"time"

	"repro/internal/monitor"
)

// DefaultMonitorInterval is the fleet-health sampling cadence: how often
// the daemon feeds its own throughput, cache and queue gauges (and each
// live worker's heartbeat age) into the control-chart monitor.
const DefaultMonitorInterval = time.Second

// MonitorState is the payload of GET /v1/monitor: the daemon's
// control-chart view of its own health.
type MonitorState struct {
	// Overall is the worst current state across every series: breach >
	// warning > learning > healthy.
	Overall monitor.State `json:"overall"`
	// SampleIntervalSec is the sampling cadence in seconds.
	SampleIntervalSec float64 `json:"sample_interval_sec"`
	// Series is the per-metric estimator state, sorted by first
	// observation.
	Series []monitor.SeriesState `json:"series"`
	// Events is the bounded log of recent state transitions, oldest
	// first — the fleet-health analogue of a job's event log.
	Events []monitor.Transition `json:"events"`
}

// Monitor returns the service's health monitor, for wiring additional
// series into it (cmd/antsimd hands it to the cluster layer so heartbeat
// probe round-trips land in the same estimator set).
func (s *Service) Monitor() *monitor.Monitor { return s.mon }

// MonitorState snapshots the monitor for /v1/monitor.
func (s *Service) MonitorState() MonitorState {
	return MonitorState{
		Overall:           s.mon.Overall(),
		SampleIntervalSec: s.cfg.MonitorInterval.Seconds(),
		Series:            s.mon.Snapshot(),
		Events:            s.mon.Events(),
	}
}

// sampleHealth feeds one round of gauges into the monitor: service
// throughput, cache efficiency, queue pressure, and the heartbeat age of
// every live fleet worker.
func (s *Service) sampleHealth(now time.Time) {
	st := s.Stats()
	s.mon.Observe("points_per_sec", st.PointsPerSec, now)
	s.mon.Observe("cache_hit_rate", st.CacheHitRate, now)
	s.mon.Observe("queue_depth", float64(st.QueueDepth), now)
	for _, w := range s.registry.live(now) {
		s.mon.Observe("heartbeat_age:"+w.Addr, w.AgeSec, now)
	}
}

// monitorLoop samples fleet health on the configured cadence until Close
// stops it.
func (s *Service) monitorLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.monStop:
			return
		case now := <-ticker.C:
			s.sampleHealth(now)
		}
	}
}
