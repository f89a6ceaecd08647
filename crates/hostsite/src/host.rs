//! The assembled host computer.
//!
//! §7's three major parts — web server, database server, application
//! programs — wired together, plus a CPU cost model so the end-to-end
//! system can charge processing latency per request: a fixed dispatch
//! cost, a per-database-operation cost and a per-body-byte generation
//! cost. These shares are what make the Figure 1/Figure 2 per-component
//! latency breakdowns meaningful.

use simnet::SimDuration;

use crate::db::Database;
use crate::http::{HttpRequest, HttpResponse};
use crate::server::WebServer;

/// CPU cost model for request processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CpuModel {
    /// Fixed cost per request (parsing, dispatch, logging).
    pub(crate) per_request: SimDuration,
    /// Cost per kilobyte of response body generated.
    pub(crate) per_body_kb: SimDuration,
}

impl Default for CpuModel {
    fn default() -> Self {
        // A turn-of-the-century server: ~2 ms dispatch, ~0.5 ms per KB of
        // dynamic page generation.
        CpuModel {
            per_request: SimDuration::from_micros(2_000),
            per_body_kb: SimDuration::from_micros(500),
        }
    }
}

impl CpuModel {
    /// Processing time for a request that produced `body_bytes` of output.
    pub(crate) fn cost(&self, body_bytes: usize) -> SimDuration {
        self.per_request + self.per_body_kb * (body_bytes as u32).div_ceil(1024)
    }
}

/// A host computer: web server + database server + application programs,
/// with a processing-latency model.
#[derive(Debug)]
pub struct HostComputer {
    /// The web server (which owns the database server).
    pub web: WebServer,
    /// The CPU model used to price each request.
    pub(crate) cpu: CpuModel,
    /// WAL fsync time charged to requests since the last
    /// [`HostComputer::take_commit_ns`] — zero under the default
    /// (free-durability) policy.
    commit_ns: u64,
}

impl HostComputer {
    /// Builds a host around a database, with default CPU costs.
    pub fn new(db: Database, seed: u64) -> Self {
        HostComputer {
            web: WebServer::new(db, seed),
            cpu: CpuModel::default(),
            commit_ns: 0,
        }
    }

    /// Handles a request, returning the response and the simulated CPU
    /// time it took the host to produce it. A page-cache hit skips the
    /// application program, so it is charged only the fixed dispatch
    /// cost, not per-body generation. WAL fsyncs the request triggered
    /// are charged on top — durability is priced at the request that
    /// paid for it.
    pub fn process(&mut self, req: HttpRequest<'_>) -> (HttpResponse, SimDuration) {
        let (resp, from_cache) = self.web.handle_cached(req);
        let mut cost = if from_cache {
            self.cpu.per_request
        } else {
            self.cpu.cost(resp.body.len())
        };
        let wal_ns = self.web.db_mut().drain_commit_cost_ns();
        if wal_ns > 0 {
            cost += SimDuration::from_nanos(wal_ns);
            self.commit_ns += wal_ns;
            obs::metrics::add("host.db.commit_ns", wal_ns);
        }
        // Full-text searches the request ran are priced like WAL fsyncs:
        // drained from the engine and charged to the request.
        let search_ns = self.web.db_mut().drain_search_cost_ns();
        if search_ns > 0 {
            cost += SimDuration::from_nanos(search_ns);
            obs::metrics::add("host.db.search_ns", search_ns);
        }
        obs::metrics::incr("host.requests");
        obs::metrics::observe("host.cpu_ns", cost.as_nanos());
        (resp, cost)
    }

    /// Returns and resets the WAL fsync share of recent request costs,
    /// letting the system split it out of the host-CPU contention lane.
    pub fn take_commit_ns(&mut self) -> u64 {
        std::mem::take(&mut self.commit_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;

    #[test]
    fn processing_cost_scales_with_body() {
        let mut host = HostComputer::new(Database::new(), 1);
        host.web.static_page("/small", "x");
        host.web.static_page("/big", "y".repeat(64 * 1024));
        let (r1, c1) = host.process(HttpRequest::get("/small"));
        let (r2, c2) = host.process(HttpRequest::get("/big"));
        assert_eq!(r1.status, Status::Ok);
        assert_eq!(r2.status, Status::Ok);
        assert!(c2 > c1);
        assert_eq!(c1, SimDuration::from_micros(2_500)); // 2 ms + 1 KB tier
        assert_eq!(c2, SimDuration::from_micros(2_000 + 64 * 500));
    }

    #[test]
    fn errors_still_cost_dispatch_time() {
        let mut host = HostComputer::new(Database::new(), 1);
        let (resp, cost) = host.process(HttpRequest::get("/missing"));
        assert_eq!(resp.status, Status::NotFound);
        assert!(cost >= CpuModel::default().per_request);
    }
}
