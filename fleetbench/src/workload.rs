//! The three fleet workloads, their digest, and the recorded references.

use std::collections::HashSet;

use mcommerce_core::apps::for_category;
use mcommerce_core::{
    CachePolicy, Category, DurabilityPolicy, FleetRunner, Scenario, Topology, WorkloadCounters,
};
use simnet::SimDuration;

/// One benchmark workload. Each simulated user is a closed loop in sim
/// time: a step starts when the previous one completes, sessions are
/// separated by think time, and every user starts at t = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Commerce browse + buy, one session per user, caches off, one
    /// private world per user (the F9 shape).
    StorefrontIsolated,
    /// Read-only Entertainment browsing, four sessions behind shared
    /// cells, gateways and a cached host, 5,000 users per host island.
    MetroBrowseShared,
    /// Search-heavy Commerce with purchases committed through a priced
    /// WAL, many small host islands.
    SearchCheckoutShared,
}

/// Users per host island on `metro_browse_shared`.
const METRO_USERS_PER_ISLAND: u64 = 5_000;
/// Users per host island on `search_checkout_shared`. Each island's
/// host sells from one catalogue whose scarcest item has 40 units; 25
/// users buying twice each stay far inside it, so no purchase runs out
/// of stock (at 100 users per island about 0.7% of purchases would).
const SEARCH_USERS_PER_ISLAND: u64 = 25;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StorefrontIsolated,
        Workload::MetroBrowseShared,
        Workload::SearchCheckoutShared,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StorefrontIsolated => "storefront_isolated",
            Workload::MetroBrowseShared => "metro_browse_shared",
            Workload::SearchCheckoutShared => "search_checkout_shared",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario seed `--seed 0` starts from.
    fn base_seed(self) -> u64 {
        match self {
            Workload::StorefrontIsolated => 97,
            Workload::MetroBrowseShared => 801,
            Workload::SearchCheckoutShared => 1201,
        }
    }

    /// The scenario seed `--seed n` runs for `users` users: the first of
    /// `base + n`, `base + n + 2^32`, … whose generated sessions use no
    /// order nonce twice on one host. The payment gateway rightly
    /// refuses a replayed nonce, and a real client never reuses an order
    /// id, so such inputs are skipped rather than counted as failures.
    pub fn scenario_seed(self, seed: u64, users: u64) -> u64 {
        let mut candidate = self.base_seed().wrapping_add(seed);
        while !self.nonces_unique_per_host(candidate, users) {
            candidate = candidate.wrapping_add(1 << 32);
        }
        candidate
    }

    fn nonces_unique_per_host(self, scenario_seed: u64, users: u64) -> bool {
        if !self.is_shared() {
            return true;
        }
        let scenario = self.scenario(scenario_seed, users);
        let topology = self.topology(users);
        let app = for_category(scenario.app);
        let mut seen = HashSet::new();
        for user in 0..users {
            let host = topology.island_of_user(user, users);
            let session_seed = simnet::rng::sub_seed(scenario_seed, "fleet.session", user);
            for session in 0..scenario.sessions_per_user {
                let steps = if scenario.search_heavy {
                    app.search_session(session_seed, session)
                } else {
                    app.session(session_seed, session)
                };
                let nonces = steps
                    .iter()
                    .filter_map(|step| step.req.form.as_ref())
                    .flatten()
                    .filter(|(key, _)| key == "nonce");
                for (_, nonce) in nonces {
                    if !seen.insert((host, nonce.clone())) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The measured population: sized so one 2-thread run takes about
    /// half a second of host time, so a measurement holds many runs.
    pub fn users(self) -> u64 {
        match self {
            Workload::StorefrontIsolated => 50_000,
            Workload::MetroBrowseShared => 2 * METRO_USERS_PER_ISLAND,
            Workload::SearchCheckoutShared => 8_000,
        }
    }

    /// A small population checked against a recorded digest on every
    /// run, whatever `--seed` says: one island on the shared workloads.
    pub fn canary_users(self) -> u64 {
        match self {
            Workload::StorefrontIsolated => 1_000,
            Workload::MetroBrowseShared => METRO_USERS_PER_ISLAND,
            Workload::SearchCheckoutShared => 20 * SEARCH_USERS_PER_ISLAND,
        }
    }

    pub fn is_shared(self) -> bool {
        self != Workload::StorefrontIsolated
    }

    /// The workload's scenario for `users` users under a scenario seed
    /// from [`Workload::scenario_seed`].
    pub fn scenario(self, scenario_seed: u64, users: u64) -> Scenario {
        let base = Scenario::new(self.name()).users(users).seed(scenario_seed);
        match self {
            Workload::StorefrontIsolated => base.app(Category::Commerce).sessions_per_user(1),
            Workload::MetroBrowseShared => base
                .app(Category::Entertainment)
                .sessions_per_user(4)
                .think_time(2.0)
                .cache(CachePolicy::standard().ttl(SimDuration::from_secs(3_600))),
            Workload::SearchCheckoutShared => base
                .app(Category::Commerce)
                .search_heavy(true)
                .sessions_per_user(2)
                .think_time(5.0)
                .cache(CachePolicy::standard())
                .durability(DurabilityPolicy::new(4, 250_000)),
        }
    }

    /// The infrastructure `users` users share. Round-robin placement
    /// spreads users evenly over cells, so every island holds the same
    /// number of users.
    pub fn topology(self, users: u64) -> Topology {
        let per_island = match self {
            Workload::StorefrontIsolated => return Topology::isolated(),
            Workload::MetroBrowseShared => METRO_USERS_PER_ISLAND,
            Workload::SearchCheckoutShared => SEARCH_USERS_PER_ISLAND,
        };
        let (gateways, cells) = match self {
            Workload::MetroBrowseShared => (5, 100),
            _ => (2, 8),
        };
        let hosts = users.div_ceil(per_island).max(1);
        Topology::shared()
            .hosts(hosts)
            .gateways(gateways * hosts)
            .cells(cells * hosts)
    }

    /// An untraced runner for this workload under a scenario seed.
    pub fn runner(self, scenario_seed: u64, users: u64, threads: usize) -> FleetRunner {
        FleetRunner::new(self.scenario(scenario_seed, users))
            .topology(self.topology(users))
            .threads(threads)
    }
}

/// FNV-1a 64 over the full debug rendering of the merged counters
/// (every counter, histogram bucket and failure reason), as F9 digests
/// them.
pub fn digest(counters: &WorkloadCounters) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{counters:?}").bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Digests recorded from this code: `(workload, --seed, users, digest)`.
/// Canary rows use [`Workload::canary_users`]; the others the measured
/// population. Regenerate with `--record-references FIRST LAST`.
#[rustfmt::skip]
const REFERENCES: &[(&str, u64, u64, &str)] = &[
    ("storefront_isolated", 0, 1000, "b20587025bc22354"),
    ("storefront_isolated", 0, 50000, "baed847c49de854e"),
    ("storefront_isolated", 1, 50000, "b3003d93e0f97111"),
    ("storefront_isolated", 2, 50000, "4a0b76bd0b347dad"),
    ("storefront_isolated", 3, 50000, "33ead42bd976c98b"),
    ("storefront_isolated", 4, 50000, "5b9ad23af63888f6"),
    ("storefront_isolated", 5, 50000, "de911f5553358f8a"),
    ("storefront_isolated", 6, 50000, "48782bed392d0279"),
    ("storefront_isolated", 7, 50000, "71d2ac0dea5c54e4"),
    ("storefront_isolated", 8, 50000, "1e3116294f3eacd4"),
    ("storefront_isolated", 9, 50000, "6447d4b115c30398"),
    ("storefront_isolated", 10, 50000, "a1c64212dc6a40d0"),
    ("storefront_isolated", 11, 50000, "bd4073d3761d8014"),
    ("storefront_isolated", 12, 50000, "2db0ebcdad151f4f"),
    ("storefront_isolated", 13, 50000, "f7aca363da1a3c9e"),
    ("storefront_isolated", 14, 50000, "4efd76a3dcb11000"),
    ("storefront_isolated", 15, 50000, "c1d16eb070e13218"),
    ("storefront_isolated", 16, 50000, "fea68a1b89ca3133"),
    ("storefront_isolated", 17, 50000, "5d4833001f8c9668"),
    ("storefront_isolated", 18, 50000, "5e17ae702a190dd8"),
    ("storefront_isolated", 19, 50000, "897d753071804003"),
    ("storefront_isolated", 20, 50000, "0dac10d58eb3f507"),
    ("storefront_isolated", 21, 50000, "ab62133c300565d1"),
    ("storefront_isolated", 22, 50000, "3e2f9abfc3f9cebc"),
    ("storefront_isolated", 23, 50000, "6bc9ecba353bd413"),
    ("storefront_isolated", 24, 50000, "8093f7b609da5cda"),
    ("storefront_isolated", 25, 50000, "89682875499c3432"),
    ("storefront_isolated", 26, 50000, "215a8f1bb5a314e5"),
    ("storefront_isolated", 27, 50000, "c752968e1f446bd0"),
    ("storefront_isolated", 28, 50000, "737e6642f57af970"),
    ("storefront_isolated", 29, 50000, "83febd6b94ac64e9"),
    ("storefront_isolated", 30, 50000, "163a3f96e4d65e8c"),
    ("storefront_isolated", 31, 50000, "7f4c42da05f1982d"),
    ("metro_browse_shared", 0, 5000, "6ed6d23b7d151e6c"),
    ("metro_browse_shared", 0, 10000, "fc81058e2315234b"),
    ("metro_browse_shared", 1, 10000, "1bcc2ccddc6437e7"),
    ("metro_browse_shared", 2, 10000, "257ffc21c072f026"),
    ("metro_browse_shared", 3, 10000, "212cfa1c1a2713c8"),
    ("metro_browse_shared", 4, 10000, "d4372c07cd061ad8"),
    ("metro_browse_shared", 5, 10000, "8495957a3ef8788d"),
    ("metro_browse_shared", 6, 10000, "f55d4c7755c6ee88"),
    ("metro_browse_shared", 7, 10000, "cbc4e714cf8b3069"),
    ("metro_browse_shared", 8, 10000, "8b7a5f9d0e94009c"),
    ("metro_browse_shared", 9, 10000, "b997f59dcd72d75b"),
    ("metro_browse_shared", 10, 10000, "2dab728d904a5c8d"),
    ("metro_browse_shared", 11, 10000, "b9e1df5661e5bcd1"),
    ("metro_browse_shared", 12, 10000, "b43f7bb9c61bbd0f"),
    ("metro_browse_shared", 13, 10000, "3f8bda4e003e274e"),
    ("metro_browse_shared", 14, 10000, "32b6914ed668da4e"),
    ("metro_browse_shared", 15, 10000, "1a3f8542482a83db"),
    ("metro_browse_shared", 16, 10000, "31d22a506e162133"),
    ("metro_browse_shared", 17, 10000, "41bea1c80e565066"),
    ("metro_browse_shared", 18, 10000, "7b3346a11b405dc8"),
    ("metro_browse_shared", 19, 10000, "85fab7f631843aeb"),
    ("metro_browse_shared", 20, 10000, "1e84685451d6fb73"),
    ("metro_browse_shared", 21, 10000, "03648a74165eccd6"),
    ("metro_browse_shared", 22, 10000, "0f41068a100296b2"),
    ("metro_browse_shared", 23, 10000, "d7f8db0f56412149"),
    ("metro_browse_shared", 24, 10000, "4a6bb68102fed36d"),
    ("metro_browse_shared", 25, 10000, "54a9093d3609de72"),
    ("metro_browse_shared", 26, 10000, "29ea28ad8d7d2b2f"),
    ("metro_browse_shared", 27, 10000, "5bc12c744879f650"),
    ("metro_browse_shared", 28, 10000, "6b6b5d8f0fe188b7"),
    ("metro_browse_shared", 29, 10000, "3ee5f9a463f1e1b0"),
    ("metro_browse_shared", 30, 10000, "0bfafe033eab9552"),
    ("metro_browse_shared", 31, 10000, "c41762ceb0d54e92"),
    ("search_checkout_shared", 0, 500, "266a40ecfb7b4429"),
    ("search_checkout_shared", 0, 8000, "9bd452846a2293b7"),
    ("search_checkout_shared", 1, 8000, "9ee56ae8a8816230"),
    ("search_checkout_shared", 2, 8000, "4b244587d5cc20b1"),
    ("search_checkout_shared", 3, 8000, "de78997f59c30c7e"),
    ("search_checkout_shared", 4, 8000, "1142d60ff6470323"),
    ("search_checkout_shared", 5, 8000, "56db0ed675a02923"),
    ("search_checkout_shared", 6, 8000, "22ed1bc75b5655c2"),
    ("search_checkout_shared", 7, 8000, "d55dbcbbed9c23a7"),
    ("search_checkout_shared", 8, 8000, "39d3f026927b501e"),
    ("search_checkout_shared", 9, 8000, "91224db977854350"),
    ("search_checkout_shared", 10, 8000, "48a044eb01dfb97d"),
    ("search_checkout_shared", 11, 8000, "7c02f2f0142eb517"),
    ("search_checkout_shared", 12, 8000, "498935e73e4099b2"),
    ("search_checkout_shared", 13, 8000, "483e4715767fc482"),
    ("search_checkout_shared", 14, 8000, "2694c9ee21301049"),
    ("search_checkout_shared", 15, 8000, "1aa2af75abac9023"),
    ("search_checkout_shared", 16, 8000, "27dec3ddbaa91450"),
    ("search_checkout_shared", 17, 8000, "1f596c99dcc4ee29"),
    ("search_checkout_shared", 18, 8000, "f0360a8f1209d86a"),
    ("search_checkout_shared", 19, 8000, "f95453b7dfcc12a9"),
    ("search_checkout_shared", 20, 8000, "09be136347aa0f15"),
    ("search_checkout_shared", 21, 8000, "1d394a44ef96381a"),
    ("search_checkout_shared", 22, 8000, "9ac9708e6ce92906"),
    ("search_checkout_shared", 23, 8000, "0f8d020c25c02cca"),
    ("search_checkout_shared", 24, 8000, "6cfb17bbc14d51a2"),
    ("search_checkout_shared", 25, 8000, "cecb23a0da5a0efd"),
    ("search_checkout_shared", 26, 8000, "2f9256db14b7b876"),
    ("search_checkout_shared", 27, 8000, "b2aa8730bc0aea5b"),
    ("search_checkout_shared", 28, 8000, "f3de885fb011af2a"),
    ("search_checkout_shared", 29, 8000, "9c0a2d1dd89aee79"),
    ("search_checkout_shared", 30, 8000, "34be116f4806b2ef"),
    ("search_checkout_shared", 31, 8000, "6b9ed3d99f10c0a8"),
];

/// The recorded digest for a run, if there is one.
pub fn reference(workload: Workload, seed: u64, users: u64) -> Option<&'static str> {
    REFERENCES
        .iter()
        .find(|&&(w, s, u, _)| w == workload.name() && s == seed && u == users)
        .map(|&(_, _, _, d)| d)
}
