//! Topology: how a fleet's stations map onto shared infrastructure.
//!
//! The paper's architecture chains stations through a wireless cell, a
//! WAP gateway and the wired WAN to a host computer. Under light load
//! each user may as well own that whole chain. Under *heavy traffic*
//! (ROADMAP item 1) the chain is shared: many stations contend for one
//! cell's airtime, one gateway transcodes for everyone behind it, one
//! host serves the population.
//!
//! A [`Topology`] describes that sharing declaratively: how many cells,
//! gateways and hosts exist, and how users are placed into cells. The
//! wiring is fixed and canonical — cell *c* uplinks through gateway
//! `c mod gateways`, gateway *g* reaches host `g mod hosts` — so the
//! **island** of a user (the connected component around one host) is a
//! pure function of `(topology, user index, user count)`, never of
//! threads. Islands are what the fleet engine parallelises over.
//!
//! [`Topology::isolated`] is the degenerate case: a cell, a gateway and
//! a host per user, which the same wiring turns into one island per
//! user.

/// How users are assigned to cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// User `u` joins cell `u mod cells` — populations spread evenly.
    #[default]
    RoundRobin,
    /// Users fill cells in contiguous blocks of `ceil(users / cells)` —
    /// user locality, e.g. one office per cell.
    Blocked,
}

/// The members of one island, each list in ascending global index
/// order (so local indices are canonical), computed in closed form from
/// the modulo wiring and the placement by [`Topology::island`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Island {
    /// Global indices of the island's gateways.
    pub(crate) gateways: Vec<u64>,
    /// Global indices of the cells those gateways serve.
    pub(crate) cells: Vec<u64>,
    /// Per cell (by local index), the local index of its gateway.
    pub(crate) cell_gateway: Vec<usize>,
    /// `(global user index, local cell index)` of every user placed in
    /// the island's cells.
    pub(crate) users: Vec<(u64, usize)>,
}

/// The infrastructure shape a fleet runs on.
///
/// Built fluently and passed to
/// [`FleetRunner::topology`](crate::fleet::FleetRunner::topology):
///
/// ```
/// use mcommerce_core::{Placement, Topology};
///
/// let topo = Topology::shared()
///     .cells(4)
///     .gateways(2)
///     .hosts(1)
///     .placement(Placement::RoundRobin);
/// assert!(topo.is_shared());
/// assert_eq!(topo.island_of_user(7, 8), 0, "one host ⇒ one island");
/// assert_eq!(Topology::isolated().island_of_user(7, 8), 7, "an island per user");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    cells: u64,
    gateways: u64,
    hosts: u64,
    placement: Placement,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::isolated()
    }
}

impl Topology {
    /// Every user owns a private world: a cell, a gateway and a host of
    /// its own. This is the default. Each count is `u64::MAX`, so the
    /// modulo wiring maps user *u* to cell *u*, gateway *u* and host *u*:
    /// one island per user, which never queues.
    #[must_use]
    pub fn isolated() -> Self {
        Topology {
            cells: u64::MAX,
            gateways: u64::MAX,
            hosts: u64::MAX,
            placement: Placement::RoundRobin,
        }
    }

    /// A shared world: one cell, one gateway, one host serving the whole
    /// population, until reshaped by the builder methods.
    #[must_use]
    pub fn shared() -> Self {
        Topology {
            cells: 1,
            gateways: 1,
            hosts: 1,
            placement: Placement::RoundRobin,
        }
    }

    /// Sets the number of wireless cells (clamped to ≥ 1).
    #[must_use]
    pub fn cells(mut self, cells: u64) -> Self {
        self.cells = cells.max(1);
        self
    }

    /// Sets the number of WAP gateways (clamped to ≥ 1).
    #[must_use]
    pub fn gateways(mut self, gateways: u64) -> Self {
        self.gateways = gateways.max(1);
        self
    }

    /// Sets the number of host computers (clamped to ≥ 1).
    #[must_use]
    pub fn hosts(mut self, hosts: u64) -> Self {
        self.hosts = hosts.max(1);
        self
    }

    /// Sets how users are placed into cells.
    #[must_use]
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Whether this topology shares infrastructure between users: false
    /// only when every count is per-user, as in [`Topology::isolated`].
    pub fn is_shared(&self) -> bool {
        self.cells.min(self.gateways).min(self.hosts) != u64::MAX
    }

    /// Number of hosts, which is also the number of islands
    /// (`u64::MAX`, one per user, on [`Topology::isolated`]). The engine
    /// runs islands `0..min(hosts, users)`; every later one is empty.
    pub(crate) fn host_count(&self) -> u64 {
        self.hosts
    }

    /// The cell user `user` (of `users` total) is placed in.
    pub(crate) fn cell_of_user(&self, user: u64, users: u64) -> u64 {
        match self.placement {
            Placement::RoundRobin => user % self.cells,
            Placement::Blocked => {
                let block = users.div_ceil(self.cells).max(1);
                (user / block).min(self.cells - 1)
            }
        }
    }

    /// The gateway cell `cell` uplinks through.
    pub(crate) fn gateway_of_cell(&self, cell: u64) -> u64 {
        cell % self.gateways
    }

    /// The host gateway `gateway` forwards to.
    pub(crate) fn host_of_gateway(&self, gateway: u64) -> u64 {
        gateway % self.hosts
    }

    /// The island (connected component, identified by its host index)
    /// user `user` belongs to.
    pub fn island_of_user(&self, user: u64, users: u64) -> u64 {
        self.host_of_gateway(self.gateway_of_cell(self.cell_of_user(user, users)))
    }

    /// [`Topology::island`] into `members`, reusing its buffers: the
    /// fleet engine refills one `Island` per worker thread.
    pub(crate) fn fill_island(&self, island: u64, users: u64, members: &mut Island) {
        members.gateways.clear();
        members.cells.clear();
        members.cell_gateway.clear();
        members.users.clear();
        members
            .gateways
            .extend((island..self.gateways).step_by(self.hosts as usize));
        if members.gateways.is_empty() {
            return;
        }
        for base in (0..self.cells).step_by(self.gateways as usize) {
            for (local, &g) in members.gateways.iter().enumerate() {
                if base + g >= self.cells {
                    break;
                }
                members.cells.push(base + g);
                members.cell_gateway.push(local);
            }
        }
        match self.placement {
            Placement::RoundRobin => {
                for base in (0..users).step_by(self.cells as usize) {
                    for (local, &c) in members.cells.iter().enumerate() {
                        if base + c >= users {
                            break;
                        }
                        members.users.push((base + c, local));
                    }
                }
            }
            Placement::Blocked => {
                // Cell c holds [c·block, (c+1)·block); the last cell also
                // takes any remainder, mirroring `cell_of_user`'s clamp.
                let block = users.div_ceil(self.cells).max(1);
                for (local, &c) in members.cells.iter().enumerate() {
                    let lo = (c * block).min(users);
                    let hi = if c + 1 == self.cells {
                        users
                    } else {
                        ((c + 1) * block).min(users)
                    };
                    members.users.extend((lo..hi).map(|u| (u, local)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An island filled from scratch.
    fn fresh_island(t: &Topology, island: u64, users: u64) -> Island {
        let mut members = Island::default();
        t.fill_island(island, users, &mut members);
        members
    }

    #[test]
    fn the_default_is_the_isolated_world() {
        assert_eq!(Topology::default(), Topology::isolated());
        assert!(!Topology::isolated().is_shared());
        assert!(Topology::shared().is_shared());
        // Any finite count shares something between some users.
        assert!(Topology::isolated().cells(4).is_shared());
        assert!(Topology::isolated().hosts(1_000).is_shared());
    }

    #[test]
    fn the_isolated_topology_is_one_island_per_user() {
        for placement in [Placement::RoundRobin, Placement::Blocked] {
            let t = Topology::isolated().placement(placement);
            assert!(!t.is_shared());
            for users in [1u64, 2, 7, 1_000] {
                for user in [0, users / 2, users - 1] {
                    assert_eq!(t.island_of_user(user, users), user);
                    assert_eq!(
                        fresh_island(&t, user, users),
                        Island {
                            gateways: vec![user],
                            cells: vec![user],
                            cell_gateway: vec![0],
                            users: vec![(user, 0)],
                        }
                    );
                }
                assert!(fresh_island(&t, users, users).users.is_empty());
            }
        }
    }

    #[test]
    fn refilling_an_island_matches_a_fresh_one() {
        let t = Topology::shared().cells(6).gateways(3).hosts(2);
        let mut reused = fresh_island(&t, 0, 40);
        for island in [1, 0, 1] {
            t.fill_island(island, 13, &mut reused);
            assert_eq!(reused, fresh_island(&t, island, 13));
        }
    }

    #[test]
    fn counts_clamp_to_at_least_one() {
        let t = Topology::shared().cells(0).gateways(0).hosts(0);
        assert_eq!(t.cells, 1);
        assert_eq!(t.gateways, 1);
        assert_eq!(t.host_count(), 1);
    }

    #[test]
    fn round_robin_spreads_and_blocked_chunks() {
        let rr = Topology::shared().cells(3);
        let cells: Vec<u64> = (0..6).map(|u| rr.cell_of_user(u, 6)).collect();
        assert_eq!(cells, vec![0, 1, 2, 0, 1, 2]);

        let blocked = rr.placement(Placement::Blocked);
        let cells: Vec<u64> = (0..6).map(|u| blocked.cell_of_user(u, 6)).collect();
        assert_eq!(cells, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn islands_follow_the_modulo_wiring() {
        // 4 cells → 2 gateways → 2 hosts: cells {0,2} land on host 0,
        // cells {1,3} on host 1.
        let t = Topology::shared().cells(4).gateways(2).hosts(2);
        assert_eq!(t.island_of_user(0, 8), 0); // cell 0 → gw 0 → host 0
        assert_eq!(t.island_of_user(1, 8), 1); // cell 1 → gw 1 → host 1
        assert_eq!(t.island_of_user(2, 8), 0); // cell 2 → gw 0 → host 0
        assert_eq!(t.island_of_user(3, 8), 1);
    }

    /// The membership the island engine used to derive by filtering
    /// every gateway, cell and user through the wiring functions.
    fn island_by_scan(t: &Topology, island: u64, users: u64) -> Island {
        let gateways: Vec<u64> = (0..t.gateways)
            .filter(|&g| t.host_of_gateway(g) == island)
            .collect();
        let cells: Vec<u64> = (0..t.cells)
            .filter(|&c| gateways.contains(&t.gateway_of_cell(c)))
            .collect();
        let cell_gateway = cells
            .iter()
            .map(|&c| gateways.iter().position(|&g| g == t.gateway_of_cell(c)).unwrap())
            .collect();
        let users = (0..users)
            .filter(|&u| t.island_of_user(u, users) == island)
            .map(|u| {
                let cell = t.cell_of_user(u, users);
                (u, cells.iter().position(|&c| c == cell).unwrap())
            })
            .collect();
        Island {
            gateways,
            cells,
            cell_gateway,
            users,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]
        // Small ranges so users < cells, hosts > gateways (empty islands)
        // and Blocked remainders all come up often.
        #[test]
        fn closed_form_membership_equals_the_filter_scan(
            cells in 1u64..24,
            gateways in 1u64..10,
            hosts in 1u64..10,
            users in 0u64..80,
            blocked in 0u8..2,
        ) {
            let t = Topology::shared()
                .cells(cells)
                .gateways(gateways)
                .hosts(hosts)
                .placement(if blocked == 1 { Placement::Blocked } else { Placement::RoundRobin });
            let mut seen = vec![0u32; users as usize];
            for island in 0..hosts {
                let members = fresh_island(&t, island, users);
                proptest::prop_assert_eq!(&members, &island_by_scan(&t, island, users));
                for &(u, _) in &members.users {
                    seen[u as usize] += 1;
                }
            }
            proptest::prop_assert!(
                seen.iter().all(|&n| n == 1),
                "every user in exactly one island"
            );
        }
    }

    #[test]
    fn blocked_placement_never_overflows_the_last_cell() {
        let t = Topology::shared().cells(3).placement(Placement::Blocked);
        for u in 0..10 {
            assert!(t.cell_of_user(u, 10) < 3);
        }
    }
}
