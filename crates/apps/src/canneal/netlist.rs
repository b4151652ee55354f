//! Synthetic netlist and placement for the canneal kernel.
//!
//! Mirrors PARSEC canneal's cost structure: elements connect through
//! *multi-terminal nets*, and a net's routing cost is its
//! half-perimeter wirelength (HPWL) — the semi-perimeter of the
//! bounding box of its terminals' locations, the standard placement
//! cost model.

use accordion_stats::rng::StreamRng;
use rand::Rng;

/// A netlist of elements connected by multi-terminal nets, placed on a
/// rectangular grid of locations.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Grid width in locations.
    pub width: usize,
    /// Grid height in locations.
    pub height: usize,
    /// Each net lists its member elements (2–6 terminals).
    pub nets: Vec<Vec<usize>>,
    /// `nets_of[e]` lists the nets element `e` belongs to.
    pub nets_of: Vec<Vec<usize>>,
}

/// A placement: `location_of[e]` is the grid slot of element `e`.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    location_of: Vec<usize>,
    width: usize,
}

/// A placement under annealing with its routing cost kept up to date:
/// the (x, y) slot of every element and the integer HPWL of every net.
/// A swap attempt reads the old cost of the two elements' nets from the
/// stored HPWLs and re-measures only those nets, with no division per
/// terminal.
///
/// Every cost is a small integer, so the `f64` delta a swap reports
/// equals the difference of [`Netlist::element_cost`] sums exactly,
/// and, like those sums, counts a net shared by both elements twice.
#[derive(Debug)]
pub struct IncrementalHpwl<'a> {
    netlist: &'a Netlist,
    /// `xy[e]` is the slot of element `e`.
    xy: Vec<(u32, u32)>,
    /// `hpwl[i]` is net `i`'s HPWL under `xy`.
    hpwl: Vec<u32>,
    /// The swapped elements' nets re-measured, `nets_of[a]` then
    /// `nets_of[b]`.
    fresh: Vec<u32>,
}

impl Netlist {
    /// Generates a random netlist with `width × height` elements and
    /// ≈`avg_degree` net memberships per element. Most nets are local
    /// (members close in element-index space, which the initial
    /// placement maps to nearby slots); a minority are global —
    /// mimicking real chip netlists so annealing has structure to
    /// exploit.
    pub fn generate(width: usize, height: usize, avg_degree: usize, rng: &mut StreamRng) -> Self {
        assert!(width >= 2 && height >= 2, "grid must be at least 2x2");
        let n = width * height;
        // Terminals average ≈3 per net, so net count ≈ n·degree/3.
        let num_nets = (n * avg_degree).div_ceil(3);
        let mut nets = Vec::with_capacity(num_nets);
        for _ in 0..num_nets {
            let terminals = 2 + rng.random_range(0..5usize); // 2..=6
            let mut members = Vec::with_capacity(terminals);
            let anchor = rng.random_range(0..n);
            members.push(anchor);
            let local = rng.random::<f64>() < 0.75;
            while members.len() < terminals {
                let candidate = if local {
                    let lo = anchor.saturating_sub(8);
                    let hi = (anchor + 8).min(n - 1);
                    rng.random_range(lo..=hi)
                } else {
                    rng.random_range(0..n)
                };
                if !members.contains(&candidate) {
                    members.push(candidate);
                }
            }
            nets.push(members);
        }
        let mut nets_of = vec![Vec::new(); n];
        for (i, net) in nets.iter().enumerate() {
            for &e in net {
                nets_of[e].push(i);
            }
        }
        Self {
            width,
            height,
            nets,
            nets_of,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.nets_of.len()
    }

    /// Whether the netlist has no elements.
    pub fn is_empty(&self) -> bool {
        self.nets_of.is_empty()
    }

    /// The identity placement (element `e` at slot `e`).
    pub fn initial_placement(&self) -> Placement {
        Placement {
            location_of: (0..self.len()).collect(),
            width: self.width,
        }
    }

    /// Half-perimeter wirelength of net `i` under placement `p`.
    pub fn net_hpwl(&self, p: &Placement, i: usize) -> f64 {
        let mut min_x = usize::MAX;
        let mut max_x = 0;
        let mut min_y = usize::MAX;
        let mut max_y = 0;
        for &e in &self.nets[i] {
            let (x, y) = p.xy_of(e);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        ((max_x - min_x) + (max_y - min_y)) as f64
    }

    /// Total routing cost of a placement: the sum of HPWL over nets.
    pub fn routing_cost(&self, p: &Placement) -> f64 {
        (0..self.nets.len()).map(|i| self.net_hpwl(p, i)).sum()
    }

    /// Cost contribution of element `e`: the HPWL of every net it
    /// belongs to (the quantity a swap of `e` can change).
    pub fn element_cost(&self, p: &Placement, e: usize) -> f64 {
        self.nets_of[e].iter().map(|&i| self.net_hpwl(p, i)).sum()
    }
}

impl Placement {
    /// Grid coordinates of element `e`'s slot.
    pub fn xy_of(&self, e: usize) -> (usize, usize) {
        let slot = self.location_of[e];
        (slot % self.width, slot / self.width)
    }

    /// Manhattan distance between the slots of elements `a` and `b`.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.xy_of(a);
        let (bx, by) = self.xy_of(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as f64
    }

    /// Swaps the locations of elements `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.location_of.swap(a, b);
    }

    /// Location slot of element `e`.
    pub fn location_of(&self, e: usize) -> usize {
        self.location_of[e]
    }
}

/// HPWL of the net with terminals `net` when element `e` sits at
/// `xy[e]`.
fn hpwl_at(net: &[usize], xy: &[(u32, u32)]) -> u32 {
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (u32::MAX, 0, u32::MAX, 0);
    for &e in net {
        let (x, y) = xy[e];
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    (max_x - min_x) + (max_y - min_y)
}

impl<'a> IncrementalHpwl<'a> {
    /// Measures the slots and net costs of placement `p`.
    pub fn new(netlist: &'a Netlist, p: &Placement) -> Self {
        let xy: Vec<(u32, u32)> = (0..netlist.len())
            .map(|e| {
                let (x, y) = p.xy_of(e);
                (x as u32, y as u32)
            })
            .collect();
        let hpwl = netlist.nets.iter().map(|n| hpwl_at(n, &xy)).collect();
        Self {
            netlist,
            xy,
            hpwl,
            fresh: Vec::new(),
        }
    }

    /// Attempts to swap elements `a` and `b`. `accept` sees the change
    /// in the two elements' cost (after − before) and decides: an
    /// accepted swap is committed, a rejected one leaves the placement
    /// and the stored HPWLs as they were.
    pub fn try_swap(&mut self, a: usize, b: usize, accept: impl FnOnce(f64) -> bool) {
        let netlist = self.netlist;
        let touched = || netlist.nets_of[a].iter().chain(&netlist.nets_of[b]);
        let before: u32 = touched().map(|&i| self.hpwl[i]).sum();
        self.xy.swap(a, b);
        self.fresh.clear();
        for &i in touched() {
            self.fresh.push(hpwl_at(&netlist.nets[i], &self.xy));
        }
        let after: u32 = self.fresh.iter().sum();
        if accept(f64::from(after) - f64::from(before)) {
            for (&i, &h) in touched().zip(&self.fresh) {
                self.hpwl[i] = h;
            }
        } else {
            self.xy.swap(a, b);
        }
    }

    /// The current placement.
    pub fn placement(&self) -> Placement {
        let width = self.netlist.width;
        Placement {
            location_of: self
                .xy
                .iter()
                .map(|&(x, y)| y as usize * width + x as usize)
                .collect(),
            width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_stats::rng::SeedStream;

    fn netlist() -> Netlist {
        let mut rng = SeedStream::new(1).stream("netlist", 0);
        Netlist::generate(10, 10, 4, &mut rng)
    }

    #[test]
    fn membership_is_consistent() {
        let n = netlist();
        for (i, net) in n.nets.iter().enumerate() {
            assert!(net.len() >= 2 && net.len() <= 6);
            for &e in net {
                assert!(n.nets_of[e].contains(&i), "element {e} missing net {i}");
            }
        }
        for (e, nets) in n.nets_of.iter().enumerate() {
            for &i in nets {
                assert!(n.nets[i].contains(&e));
            }
        }
    }

    #[test]
    fn no_duplicate_terminals() {
        let n = netlist();
        for net in &n.nets {
            let mut m = net.clone();
            m.sort_unstable();
            m.dedup();
            assert_eq!(m.len(), net.len());
        }
    }

    #[test]
    fn hpwl_of_two_terminal_net_is_manhattan() {
        let n = netlist();
        let p = n.initial_placement();
        for (i, net) in n.nets.iter().enumerate() {
            if net.len() == 2 {
                assert_eq!(n.net_hpwl(&p, i), p.distance(net[0], net[1]));
            }
        }
    }

    #[test]
    fn cost_is_positive_and_swap_changes_it() {
        let n = netlist();
        let mut p = n.initial_placement();
        let c0 = n.routing_cost(&p);
        assert!(c0 > 0.0);
        p.swap(0, 99);
        assert_ne!(n.routing_cost(&p), c0);
    }

    #[test]
    fn swap_is_involutive() {
        let n = netlist();
        let mut p = n.initial_placement();
        let c0 = n.routing_cost(&p);
        p.swap(3, 42);
        p.swap(3, 42);
        assert_eq!(n.routing_cost(&p), c0);
    }

    #[test]
    fn hpwl_bounded_by_grid_perimeter() {
        let n = netlist();
        let p = n.initial_placement();
        for i in 0..n.nets.len() {
            assert!(n.net_hpwl(&p, i) <= (n.width + n.height) as f64);
        }
    }

    #[test]
    fn incremental_swaps_match_element_sums_when_the_elements_share_a_net() {
        let n = netlist();
        let mut placement = n.initial_placement();
        let mut state = IncrementalHpwl::new(&n, &placement);
        // Two terminals of one net, accepted and rejected in turn.
        for (k, net) in n.nets.iter().enumerate().take(40) {
            let (a, b) = (net[0], net[1]);
            let before = n.element_cost(&placement, a) + n.element_cost(&placement, b);
            let mut swapped = placement.clone();
            swapped.swap(a, b);
            let after = n.element_cost(&swapped, a) + n.element_cost(&swapped, b);
            let mut seen = None;
            let accept = k % 2 == 0;
            state.try_swap(a, b, |delta| {
                seen = Some(delta);
                accept
            });
            assert_eq!(seen.map(f64::to_bits), Some((after - before).to_bits()));
            if accept {
                placement = swapped;
            }
            assert_eq!(state.placement(), placement, "net {k}");
        }
    }

    #[test]
    fn element_cost_covers_only_member_nets() {
        let n = netlist();
        let p = n.initial_placement();
        let e = 5;
        let direct: f64 = n.nets_of[e].iter().map(|&i| n.net_hpwl(&p, i)).sum();
        assert_eq!(n.element_cost(&p, e), direct);
    }
}
