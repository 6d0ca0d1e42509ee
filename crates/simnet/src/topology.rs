//! Datacenter topology and routing.

/// Index of a directed link.
pub type LinkId = usize;

/// A directed link's physical parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Capacity in bytes/second.
    pub capacity: f64,
    /// Fixed propagation + switching latency in seconds.
    pub latency: f64,
}

/// A tree datacenter (paper Fig. 3), two- or three-level.
///
/// Hosts `0..racks*hosts_per_rack` each have an *up* link to their
/// top-of-rack switch and a *down* link from it (full duplex as two
/// directed links); each ToR has an up/down pair to the next level —
/// the single core switch in a two-level tree, a pod switch in a
/// three-level tree (each pod then connects to the core with its own
/// up/down pair). Routing between hosts is the unique tree path.
#[derive(Debug, Clone)]
pub struct Topology {
    racks: usize,
    hosts_per_rack: usize,
    /// Three-level extension: racks are grouped into pods of this many
    /// racks (`None` = two-level).
    racks_per_pod: Option<usize>,
    links: Vec<LinkSpec>,
}

/// Link-id layout: for host `h`: up = `2h`, down = `2h + 1`. For rack `r`:
/// up = `2H + 2r`, down = `2H + 2r + 1` where `H` is the host count.
impl Topology {
    /// The paper's simulation topology: 32 racks × 32 servers, 1 Gb/s
    /// within racks (host links) and 10 Gb/s between racks (core links).
    pub fn paper_tree() -> Self {
        Topology::tree(
            32,
            32,
            LinkSpec {
                capacity: 1e9 / 8.0, // 1 Gb/s in bytes/s
                latency: 20e-6,
            },
            LinkSpec {
                capacity: 10e9 / 8.0, // 10 Gb/s
                latency: 30e-6,
            },
        )
    }

    /// General two-level tree with the given host-link and core-link specs.
    pub fn tree(
        racks: usize,
        hosts_per_rack: usize,
        host_link: LinkSpec,
        core_link: LinkSpec,
    ) -> Self {
        assert!(racks >= 1 && hosts_per_rack >= 1);
        assert!(host_link.capacity > 0.0 && core_link.capacity > 0.0);
        let hosts = racks * hosts_per_rack;
        let mut links = Vec::with_capacity(2 * hosts + 2 * racks);
        for _ in 0..hosts {
            links.push(host_link); // up
            links.push(host_link); // down
        }
        for _ in 0..racks {
            links.push(core_link); // up
            links.push(core_link); // down
        }
        Topology {
            racks,
            hosts_per_rack,
            racks_per_pod: None,
            links,
        }
    }

    /// Three-level tree: racks grouped into pods, pods under one core.
    /// `rack_link` connects ToR ↔ pod switch; `pod_link` connects pod ↔
    /// core — the second oversubscription point of larger datacenters.
    pub fn three_level(
        pods: usize,
        racks_per_pod: usize,
        hosts_per_rack: usize,
        host_link: LinkSpec,
        rack_link: LinkSpec,
        pod_link: LinkSpec,
    ) -> Self {
        assert!(pods >= 1 && racks_per_pod >= 1 && hosts_per_rack >= 1);
        let racks = pods * racks_per_pod;
        let hosts = racks * hosts_per_rack;
        let mut links = Vec::with_capacity(2 * hosts + 2 * racks + 2 * pods);
        for _ in 0..hosts {
            links.push(host_link);
            links.push(host_link);
        }
        for _ in 0..racks {
            links.push(rack_link);
            links.push(rack_link);
        }
        for _ in 0..pods {
            links.push(pod_link);
            links.push(pod_link);
        }
        Topology {
            racks,
            hosts_per_rack,
            racks_per_pod: Some(racks_per_pod),
            links,
        }
    }

    /// Pod index of a host (equals its rack in two-level trees).
    pub fn pod_of(&self, host: usize) -> usize {
        match self.racks_per_pod {
            None => self.rack_of(host),
            Some(rpp) => self.rack_of(host) / rpp,
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.racks * self.hosts_per_rack
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Spec of a link.
    pub fn link(&self, id: LinkId) -> LinkSpec {
        self.links[id]
    }

    /// Rack index of a host.
    pub fn rack_of(&self, host: usize) -> usize {
        debug_assert!(host < self.hosts());
        host / self.hosts_per_rack
    }

    /// Rack ids of every host (input to topology-aware algorithms that are
    /// granted topology knowledge in the simulations).
    pub fn rack_ids(&self) -> Vec<usize> {
        (0..self.hosts()).map(|h| self.rack_of(h)).collect()
    }

    fn host_up(&self, h: usize) -> LinkId {
        2 * h
    }
    fn host_down(&self, h: usize) -> LinkId {
        2 * h + 1
    }
    fn rack_up(&self, r: usize) -> LinkId {
        2 * self.hosts() + 2 * r
    }
    fn rack_down(&self, r: usize) -> LinkId {
        2 * self.hosts() + 2 * r + 1
    }
    fn pod_up(&self, p: usize) -> LinkId {
        2 * self.hosts() + 2 * self.racks + 2 * p
    }
    fn pod_down(&self, p: usize) -> LinkId {
        2 * self.hosts() + 2 * self.racks + 2 * p + 1
    }

    /// The directed link path from `src` host to `dst` host. Empty for
    /// `src == dst`.
    pub fn path(&self, src: usize, dst: usize) -> Vec<LinkId> {
        assert!(src < self.hosts() && dst < self.hosts());
        if src == dst {
            return Vec::new();
        }
        let (rs, rd) = (self.rack_of(src), self.rack_of(dst));
        if rs == rd {
            return vec![self.host_up(src), self.host_down(dst)];
        }
        let (ps, pd) = (self.pod_of(src), self.pod_of(dst));
        if self.racks_per_pod.is_none() || ps == pd {
            // Two-level, or same pod in three-level: meet at the rack
            // aggregation switch.
            vec![
                self.host_up(src),
                self.rack_up(rs),
                self.rack_down(rd),
                self.host_down(dst),
            ]
        } else {
            // Cross-pod: climb to the core.
            vec![
                self.host_up(src),
                self.rack_up(rs),
                self.pod_up(ps),
                self.pod_down(pd),
                self.rack_down(rd),
                self.host_down(dst),
            ]
        }
    }

    /// Total fixed latency along a path.
    pub fn path_latency(&self, path: &[LinkId]) -> f64 {
        path.iter().map(|&l| self.links[l].latency).sum()
    }

    /// Bottleneck (minimum) capacity along a path in bytes/second.
    pub fn path_capacity(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|&l| self.links[l].capacity)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Topology {
        Topology::tree(
            2,
            3,
            LinkSpec {
                capacity: 100.0,
                latency: 0.001,
            },
            LinkSpec {
                capacity: 1000.0,
                latency: 0.002,
            },
        )
    }

    #[test]
    fn counts() {
        let t = small();
        assert_eq!(t.hosts(), 6);
        assert_eq!(t.racks(), 2);
        assert_eq!(t.link_count(), 2 * 6 + 2 * 2);
    }

    #[test]
    fn paper_tree_dimensions() {
        let t = Topology::paper_tree();
        assert_eq!(t.hosts(), 1024);
        assert_eq!(t.racks(), 32);
        assert!((t.link(0).capacity - 1.25e8).abs() < 1.0);
    }

    #[test]
    fn same_rack_path_two_hops() {
        let t = small();
        let p = t.path(0, 2); // both in rack 0
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], 0); // host 0 up
        assert_eq!(p[1], 5); // host 2 down
        assert!((t.path_latency(&p) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn cross_rack_path_four_hops() {
        let t = small();
        let p = t.path(1, 4); // rack 0 → rack 1
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], 2); // host 1 up
        assert_eq!(p[1], 12); // rack 0 up
        assert_eq!(p[2], 15); // rack 1 down
        assert_eq!(p[3], 9); // host 4 down
    }

    #[test]
    fn self_path_empty() {
        let t = small();
        assert!(t.path(3, 3).is_empty());
    }

    #[test]
    fn path_capacity_is_bottleneck() {
        let t = small();
        let same = t.path(0, 1);
        assert_eq!(t.path_capacity(&same), 100.0);
        let cross = t.path(0, 5);
        assert_eq!(t.path_capacity(&cross), 100.0); // host links bind
    }

    #[test]
    fn rack_ids_layout() {
        let t = small();
        assert_eq!(t.rack_ids(), vec![0, 0, 0, 1, 1, 1]);
    }

    fn three() -> Topology {
        Topology::three_level(
            2, // pods
            2, // racks per pod
            2, // hosts per rack
            LinkSpec {
                capacity: 100.0,
                latency: 0.001,
            },
            LinkSpec {
                capacity: 400.0,
                latency: 0.002,
            },
            LinkSpec {
                capacity: 800.0,
                latency: 0.003,
            },
        )
    }

    #[test]
    fn three_level_counts() {
        let t = three();
        assert_eq!(t.hosts(), 8);
        assert_eq!(t.racks(), 4);
        // 16 host + 8 rack + 4 pod links.
        assert_eq!(t.link_count(), 28);
        assert_eq!(t.pod_of(0), 0);
        assert_eq!(t.pod_of(3), 0);
        assert_eq!(t.pod_of(4), 1);
    }

    #[test]
    fn three_level_same_rack_two_hops() {
        let t = three();
        assert_eq!(t.path(0, 1).len(), 2);
    }

    #[test]
    fn three_level_same_pod_four_hops() {
        let t = three();
        // Hosts 0 (rack 0) and 2 (rack 1), both pod 0.
        let p = t.path(0, 2);
        assert_eq!(p.len(), 4);
        assert!((t.path_latency(&p) - (0.001 + 0.002 + 0.002 + 0.001)).abs() < 1e-12);
    }

    #[test]
    fn three_level_cross_pod_six_hops() {
        let t = three();
        let p = t.path(0, 7);
        assert_eq!(p.len(), 6);
        assert!(
            (t.path_latency(&p) - (0.001 + 0.002 + 0.003 + 0.003 + 0.002 + 0.001)).abs() < 1e-12
        );
    }

    #[test]
    fn two_level_pod_equals_rack() {
        let t = small();
        for h in 0..t.hosts() {
            assert_eq!(t.pod_of(h), t.rack_of(h));
        }
    }
}
