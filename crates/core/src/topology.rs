//! Network model: links with capacity, buffer, propagation delay, and a
//! queuing discipline; paths as ordered link sequences (paper §2).
//!
//! Supports arbitrary topologies (multiple queued links per path), which
//! the paper lists as future work. Every scenario family, the dumbbell of
//! Fig. 3 included, reaches this model through
//! [`network_for_spec`](crate::backend::network_for_spec), which maps the
//! spec's `ScenarioSpec::layout`.

/// Index of a link within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

// Shared with the packet simulator through the scenario layer; the fluid
// model implements DropTail as a smooth approximation of Eq. (4) and Red
// as the idealized `p = q/B` of Eq. (6).
pub use bbr_scenario::QdiscKind;

/// A unidirectional link: transmission capacity `C_ℓ` (Mbit/s), buffer
/// size `B_ℓ` (Mbit), propagation delay `d_ℓ` (s).
#[derive(Debug, Clone)]
pub struct LinkSpec {
    pub capacity: f64,
    pub buffer: f64,
    pub prop_delay: f64,
    pub qdisc: QdiscKind,
}

impl LinkSpec {
    /// Bandwidth-delay product of this link alone, in Mbit.
    pub fn bdp(&self) -> f64 {
        self.capacity * self.prop_delay
    }
}

/// The path of one agent: the queued links it traverses plus pure
/// propagation delay on unqueued segments (access links in the dumbbell
/// are never saturated, §4.1.3, so they contribute delay only).
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Queued links in forward order.
    pub links: Vec<LinkId>,
    /// One-way propagation delay before the first queued link (s).
    pub extra_fwd_delay: f64,
    /// Propagation delay of the return direction (receiver → sender),
    /// including the ACK path (s).
    pub extra_bwd_delay: f64,
}

/// A network: links plus one path per agent (path `i` carries agent `i`).
#[derive(Debug, Clone)]
pub struct Network {
    pub links: Vec<LinkSpec>,
    pub paths: Vec<PathSpec>,
}

impl Network {
    /// Validate link references, capacities, and delays.
    pub fn validate(&self) -> Result<(), String> {
        if self.links.is_empty() {
            return Err("network has no links".into());
        }
        if self.paths.is_empty() {
            return Err("network has no paths".into());
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.capacity <= 0.0 {
                return Err(format!("link {i}: capacity must be positive"));
            }
            if l.buffer <= 0.0 {
                return Err(format!("link {i}: buffer must be positive"));
            }
            if l.prop_delay < 0.0 {
                return Err(format!("link {i}: negative propagation delay"));
            }
        }
        for (i, p) in self.paths.iter().enumerate() {
            if p.links.is_empty() {
                return Err(format!("path {i}: traverses no queued link"));
            }
            for l in &p.links {
                if l.0 >= self.links.len() {
                    return Err(format!("path {i}: unknown link {}", l.0));
                }
            }
            if p.extra_fwd_delay < 0.0 || p.extra_bwd_delay < 0.0 {
                return Err(format!("path {i}: negative extra delay"));
            }
            if self.prop_rtt(i) <= 0.0 {
                return Err(format!("path {i}: zero propagation RTT"));
            }
        }
        Ok(())
    }

    /// Number of agents (= paths).
    pub fn n_agents(&self) -> usize {
        self.paths.len()
    }

    /// Round-trip propagation delay `d_i` of path `i` (no queuing).
    pub fn prop_rtt(&self, path: usize) -> f64 {
        let p = &self.paths[path];
        let link_delay: f64 = p.links.iter().map(|l| self.links[l.0].prop_delay).sum();
        p.extra_fwd_delay + link_delay + p.extra_bwd_delay
    }

    /// One-way propagation delay from agent `i` to queued link at position
    /// `pos` on its path (`d^f_{i,ℓ}` of Eq. (1)).
    pub fn fwd_delay(&self, path: usize, pos: usize) -> f64 {
        let p = &self.paths[path];
        let before: f64 = p.links[..pos]
            .iter()
            .map(|l| self.links[l.0].prop_delay)
            .sum();
        p.extra_fwd_delay + before
    }

    /// Feedback delay from queued link at `pos` back to agent `i`
    /// (`d^b_{i,ℓ}`): the remainder of the propagation RTT.
    pub fn bwd_delay(&self, path: usize, pos: usize) -> f64 {
        (self.prop_rtt(path) - self.fwd_delay(path, pos)).max(0.0)
    }

    /// The bottleneck link (position on the path) of agent `i`: the
    /// minimum-capacity queued link.
    pub fn bottleneck_pos(&self, path: usize) -> usize {
        let p = &self.paths[path];
        let mut best = 0;
        let mut best_cap = f64::INFINITY;
        for (pos, l) in p.links.iter().enumerate() {
            let c = self.links[l.0].capacity;
            if c < best_cap {
                best_cap = c;
                best = pos;
            }
        }
        best
    }

    /// Bandwidth-delay product of path `i` (bottleneck capacity × RTT), in
    /// Mbit.
    pub fn path_bdp(&self, path: usize) -> f64 {
        let pos = self.bottleneck_pos(path);
        let link = &self.links[self.paths[path].links[pos].0];
        link.capacity * self.prop_rtt(path)
    }

    /// Agents whose paths traverse the given link, with the link's
    /// position on each path.
    pub fn users_of(&self, link: LinkId) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, p) in self.paths.iter().enumerate() {
            if let Some(pos) = p.links.iter().position(|l| *l == link) {
                out.push((i, pos));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::network_for_spec;
    use bbr_scenario::ScenarioSpec;

    fn two_link_net() -> Network {
        Network {
            links: vec![
                LinkSpec {
                    capacity: 100.0,
                    buffer: 1.0,
                    prop_delay: 0.01,
                    qdisc: QdiscKind::DropTail,
                },
                LinkSpec {
                    capacity: 50.0,
                    buffer: 1.0,
                    prop_delay: 0.02,
                    qdisc: QdiscKind::Red,
                },
            ],
            paths: vec![PathSpec {
                links: vec![LinkId(0), LinkId(1)],
                extra_fwd_delay: 0.005,
                extra_bwd_delay: 0.005,
            }],
        }
    }

    #[test]
    fn validates_good_network() {
        two_link_net().validate().unwrap();
    }

    #[test]
    fn rejects_bad_link_ref() {
        let mut net = two_link_net();
        net.paths[0].links.push(LinkId(9));
        assert!(net.validate().is_err());
    }

    #[test]
    fn rejects_empty() {
        let net = Network {
            links: vec![],
            paths: vec![],
        };
        assert!(net.validate().is_err());
    }

    #[test]
    fn prop_rtt_sums_delays() {
        let net = two_link_net();
        assert!((net.prop_rtt(0) - (0.005 + 0.01 + 0.02 + 0.005)).abs() < 1e-12);
    }

    #[test]
    fn fwd_and_bwd_delays_partition_rtt() {
        let net = two_link_net();
        for pos in 0..2 {
            let total = net.fwd_delay(0, pos) + net.bwd_delay(0, pos);
            assert!((total - net.prop_rtt(0)).abs() < 1e-12);
        }
        assert!((net.fwd_delay(0, 1) - 0.015).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_is_min_capacity() {
        let net = two_link_net();
        assert_eq!(net.bottleneck_pos(0), 1);
    }

    #[test]
    fn dumbbell_shape() {
        let spec = ScenarioSpec::dumbbell_with_access(100.0, 0.01, 2.0, &[0.005, 0.006, 0.007]);
        let net = network_for_spec(&spec);
        net.validate().unwrap();
        assert_eq!(net.links.len(), 1);
        assert_eq!(net.paths.len(), 3);
        // Link BDP = 100 Mbit/s × 10 ms = 1 Mbit → buffer = 2 Mbit.
        assert!((net.links[0].buffer - 2.0).abs() < 1e-9);
        assert!((net.prop_rtt(1) - 0.032).abs() < 1e-12);
        assert_eq!(net.users_of(LinkId(0)).len(), 3);
    }

    #[test]
    fn path_bdp_uses_bottleneck() {
        let net = two_link_net();
        assert!((net.path_bdp(0) - 50.0 * 0.04).abs() < 1e-9);
    }
}
