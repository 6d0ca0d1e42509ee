//! VM-to-host placement in the hidden datacenter.

use crate::hash;

/// Network distance class between two VMs — the hidden topological fact
/// that determines a link's constant performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementDistance {
    /// Both VMs on the same physical host (memory-speed virtual switch).
    SameHost,
    /// Same rack, different host (one ToR hop).
    SameRack,
    /// Different racks (core switch traversal).
    CrossRack,
}

/// An assignment of `n` VMs to hosts in a `racks × hosts_per_rack`
/// datacenter.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    racks: usize,
    hosts_per_rack: usize,
    /// `host[v]` is the global host index of VM `v`.
    host: Vec<usize>,
}

impl Placement {
    /// Randomly place `n` VMs (deterministic in `seed`). Hosts can hold at
    /// most `slots_per_host` VMs; panics if capacity is insufficient.
    pub fn random(
        n: usize,
        racks: usize,
        hosts_per_rack: usize,
        slots_per_host: usize,
        seed: u64,
    ) -> Self {
        let hosts = racks * hosts_per_rack;
        assert!(
            n <= hosts * slots_per_host,
            "cannot place {n} VMs on {hosts} hosts with {slots_per_host} slots each"
        );
        let mut load = vec![0usize; hosts];
        let mut host = Vec::with_capacity(n);
        for v in 0..n {
            // Rejection-sample a host with free capacity; deterministic
            // sequence per (seed, vm, attempt).
            let mut attempt = 0u64;
            let h = loop {
                let cand = (hash::mix_all(&[seed, 0x9A7C, v as u64, attempt]) as usize) % hosts;
                if load[cand] < slots_per_host {
                    break cand;
                }
                attempt += 1;
                if attempt > 10_000 {
                    // Fall back to the first host with capacity.
                    break (0..hosts).find(|&c| load[c] < slots_per_host).unwrap();
                }
            };
            load[h] += 1;
            host.push(h);
        }
        Placement {
            racks,
            hosts_per_rack,
            host,
        }
    }

    /// Number of VMs placed.
    pub fn n(&self) -> usize {
        self.host.len()
    }

    /// Number of racks in the datacenter.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Global host index of VM `v`.
    pub fn host_of(&self, v: usize) -> usize {
        self.host[v]
    }

    /// Rack index of VM `v`.
    pub fn rack_of(&self, v: usize) -> usize {
        self.host[v] / self.hosts_per_rack
    }

    /// Distance class between two VMs.
    pub fn distance(&self, a: usize, b: usize) -> PlacementDistance {
        if self.host[a] == self.host[b] {
            PlacementDistance::SameHost
        } else if self.rack_of(a) == self.rack_of(b) {
            PlacementDistance::SameRack
        } else {
            PlacementDistance::CrossRack
        }
    }

    /// The VMs of each rack, indexed by rack. A rack is the natural
    /// correlated fault domain: one ToR switch or PDU failure takes out
    /// every link touching every VM in the group at once.
    pub fn rack_groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.racks];
        for v in 0..self.n() {
            groups[self.rack_of(v)].push(v);
        }
        groups
    }

    /// A copy of this placement with each VM independently migrated to a
    /// fresh random host with probability `migrate_frac` — the regime-shift
    /// event (VM consolidation / migration, paper §I and §IV-A).
    pub fn migrate(&self, migrate_frac: f64, slots_per_host: usize, seed: u64) -> Placement {
        let hosts = self.racks * self.hosts_per_rack;
        let mut load = vec![0usize; hosts];
        for &h in &self.host {
            load[h] += 1;
        }
        let mut out = self.clone();
        for v in 0..self.n() {
            if hash::uniform(&[seed, 0x41C3, v as u64], 0.0, 1.0) >= migrate_frac {
                continue;
            }
            let mut attempt = 0u64;
            let new_h = loop {
                let cand = (hash::mix_all(&[seed, 0x77F2, v as u64, attempt]) as usize) % hosts;
                if cand != out.host[v] && load[cand] < slots_per_host {
                    break Some(cand);
                }
                attempt += 1;
                if attempt > 10_000 {
                    break None;
                }
            };
            if let Some(h) = new_h {
                load[out.host[v]] -= 1;
                load[h] += 1;
                out.host[v] = h;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        let a = Placement::random(32, 8, 8, 2, 42);
        let b = Placement::random(32, 8, 8, 2, 42);
        assert_eq!(a, b);
        let c = Placement::random(32, 8, 8, 2, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn capacity_respected() {
        let p = Placement::random(16, 4, 2, 2, 7);
        let mut load = [0usize; 8];
        for v in 0..16 {
            load[p.host_of(v)] += 1;
        }
        assert!(load.iter().all(|&l| l <= 2));
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn over_capacity_panics() {
        Placement::random(100, 2, 2, 1, 0);
    }

    #[test]
    fn distance_classes() {
        // Full datacenter with one slot per host: all hosts used exactly once.
        let p = Placement::random(8, 2, 4, 1, 3);
        for a in 0..8 {
            for b in 0..8 {
                if a == b {
                    continue;
                }
                let d = p.distance(a, b);
                if p.host_of(a) == p.host_of(b) {
                    assert_eq!(d, PlacementDistance::SameHost);
                } else if p.rack_of(a) == p.rack_of(b) {
                    assert_eq!(d, PlacementDistance::SameRack);
                } else {
                    assert_eq!(d, PlacementDistance::CrossRack);
                }
            }
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let p = Placement::random(20, 4, 4, 2, 11);
        for a in 0..20 {
            for b in 0..20 {
                assert_eq!(p.distance(a, b), p.distance(b, a));
            }
        }
    }

    #[test]
    fn rack_groups_partition_the_vms() {
        let p = Placement::random(24, 4, 4, 2, 17);
        let groups = p.rack_groups();
        assert_eq!(groups.len(), 4);
        let mut seen = [false; 24];
        for (r, vms) in groups.iter().enumerate() {
            for &v in vms {
                assert_eq!(p.rack_of(v), r);
                assert!(!seen[v], "VM {v} listed twice");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every VM belongs to some rack");
    }

    #[test]
    fn migrate_moves_roughly_expected_fraction() {
        let p = Placement::random(200, 16, 8, 4, 5);
        let q = p.migrate(0.3, 4, 99);
        let moved = (0..200).filter(|&v| p.host_of(v) != q.host_of(v)).count();
        assert!(
            (30..90).contains(&moved),
            "expected ~60 moved VMs, got {moved}"
        );
    }

    #[test]
    fn migrate_zero_fraction_is_identity() {
        let p = Placement::random(50, 8, 8, 2, 1);
        assert_eq!(p.migrate(0.0, 2, 77), p);
    }

    #[test]
    fn migrate_respects_capacity() {
        let p = Placement::random(32, 4, 4, 2, 8);
        let q = p.migrate(0.5, 2, 13);
        let mut load = vec![0usize; 16];
        for v in 0..32 {
            load[q.host_of(v)] += 1;
        }
        assert!(load.iter().all(|&l| l <= 2), "load {load:?}");
    }
}
