//! Multi-plane 2D-mesh NoC with link-level contention.
//!
//! Packets are routed XY (column first, then row) over per-plane physical
//! links, like ESP's packet-switched mesh with multiple physical planes.
//! The model reserves each link along the path for the packet's
//! serialization time, so concurrent transfers crossing the same link
//! serialize while transfers on disjoint paths (or different planes)
//! proceed in parallel — the property that makes the Fig. 4 SoCs with more
//! reconfigurable tiles faster but not linearly so.

use crate::config::TileCoord;
use presp_events::ResourceTimeline;
use std::collections::HashMap;

/// Link width: bytes moved per cycle per link.
pub(crate) const FLIT_BYTES: u64 = 8;
/// Router pipeline latency per hop, cycles.
pub(crate) const HOP_LATENCY: u64 = 4;
/// Header overhead per packet, flits.
pub(crate) const HEADER_FLITS: u64 = 2;

/// The physical NoC planes the model carries traffic on. ESP's
/// coherence planes are left out: nothing in the simulator sends
/// coherence messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Plane {
    /// DMA data (accelerator load/store).
    Dma,
    /// Second DMA plane — PR-ESP routes DFXC bitstream fetches here.
    Dfx,
    /// Memory-mapped register access (APB-over-NoC).
    RegAccess,
    /// Interrupt delivery.
    Irq,
}

impl Plane {
    /// Stable lowercase name (used in trace records).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Plane::Dma => "dma",
            Plane::Dfx => "dfx",
            Plane::RegAccess => "reg-access",
            Plane::Irq => "irq",
        }
    }
}

/// A completed transfer's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transfer {
    /// Cycle the first flit left the source.
    pub start: u64,
    /// Cycle the last flit arrived at the destination.
    pub end: u64,
    /// Hops traversed.
    pub hops: usize,
    /// Flits moved (including header).
    pub flits: u64,
    /// Cycles lost waiting for busy links along the path.
    pub waited: u64,
}

impl Transfer {
    /// Transfer latency in cycles.
    pub(crate) fn latency(&self) -> u64 {
        self.end - self.start
    }
}

/// Directed link key: one hop of one plane.
type LinkKey = (TileCoord, TileCoord, Plane);

/// The mesh NoC state: one reservation timeline per directed link per
/// plane.
#[derive(Debug, Clone, Default)]
pub(crate) struct Noc {
    links: HashMap<LinkKey, ResourceTimeline>,
    transfers: u64,
}

impl Noc {
    /// A fresh, idle NoC.
    pub(crate) fn new() -> Noc {
        Noc::default()
    }

    /// Total transfers injected so far (all planes). Fault-injection tests
    /// use this to prove that rejected operations never reached the NoC.
    pub(crate) fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// The XY route from `src` to `dst` (inclusive of both endpoints).
    pub(crate) fn route(src: TileCoord, dst: TileCoord) -> Vec<TileCoord> {
        let mut path = vec![src];
        let mut cur = src;
        while cur.col != dst.col {
            cur.col = if dst.col > cur.col {
                cur.col + 1
            } else {
                cur.col - 1
            };
            path.push(cur);
        }
        while cur.row != dst.row {
            cur.row = if dst.row > cur.row {
                cur.row + 1
            } else {
                cur.row - 1
            };
            path.push(cur);
        }
        path
    }

    /// Sends `bytes` from `src` to `dst` on `plane`, no earlier than `now`.
    ///
    /// Returns the transfer timing. Links along the path are reserved for
    /// the packet's serialization time; a same-plane transfer crossing a
    /// busy link waits for it.
    pub(crate) fn transfer(
        &mut self,
        now: u64,
        src: TileCoord,
        dst: TileCoord,
        bytes: u64,
        plane: Plane,
    ) -> Transfer {
        self.transfers += 1;
        let flits = HEADER_FLITS + bytes.div_ceil(FLIT_BYTES);
        let path = Self::route(src, dst);
        if path.len() == 1 {
            // Local access: no links, just serialization.
            return Transfer {
                start: now,
                end: now + flits,
                hops: 0,
                flits,
                waited: 0,
            };
        }
        let mut head = now;
        let mut start = None;
        let mut waited = 0;
        for pair in path.windows(2) {
            let key = (pair[0], pair[1], plane);
            // Each link is held for the packet's serialization time; the
            // head advances one router pipeline per hop.
            let r = self.links.entry(key).or_default().reserve(head, flits);
            if start.is_none() {
                start = Some(r.start);
            }
            waited += r.waited;
            head = r.start + HOP_LATENCY;
        }
        // Last flit arrives after the head reaches the sink plus the body
        // streams through.
        let end = head + flits;
        Transfer {
            start: start.unwrap_or(now),
            end,
            hops: path.len() - 1,
            flits,
            waited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(r: usize, col: usize) -> TileCoord {
        TileCoord::new(r, col)
    }

    #[test]
    fn route_is_xy() {
        let path = Noc::route(c(0, 0), c(2, 2));
        assert_eq!(
            path,
            vec![c(0, 0), c(0, 1), c(0, 2), c(1, 2), c(2, 2)],
            "column-first routing"
        );
    }

    #[test]
    fn local_transfer_has_no_hops() {
        let mut noc = Noc::new();
        let t = noc.transfer(10, c(1, 1), c(1, 1), 64, Plane::Dma);
        assert_eq!(t.hops, 0);
        assert_eq!(t.start, 10);
        assert!(t.end > t.start);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut noc = Noc::new();
        let near = noc.transfer(0, c(0, 0), c(0, 1), 256, Plane::Dma);
        let mut noc2 = Noc::new();
        let far = noc2.transfer(0, c(0, 0), c(2, 2), 256, Plane::Dma);
        assert!(far.latency() > near.latency());
        assert_eq!(far.latency() - near.latency(), 3 * HOP_LATENCY);
    }

    #[test]
    fn same_link_transfers_serialize() {
        let mut noc = Noc::new();
        let a = noc.transfer(0, c(0, 0), c(0, 2), 800, Plane::Dma);
        let b = noc.transfer(0, c(0, 0), c(0, 2), 800, Plane::Dma);
        // Second packet waits for the first link to drain.
        assert!(b.start >= a.start + a.flits);
        assert!(b.end > a.end);
    }

    #[test]
    fn different_planes_do_not_contend() {
        let mut noc = Noc::new();
        let a = noc.transfer(0, c(0, 0), c(0, 2), 800, Plane::Dma);
        let b = noc.transfer(0, c(0, 0), c(0, 2), 800, Plane::Dfx);
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut noc = Noc::new();
        let a = noc.transfer(0, c(0, 0), c(0, 1), 800, Plane::Dma);
        let b = noc.transfer(0, c(2, 0), c(2, 1), 800, Plane::Dma);
        assert_eq!(a.start, b.start);
    }

    #[test]
    fn big_transfers_are_bandwidth_bound() {
        let mut noc = Noc::new();
        let bytes = 64 * 1024;
        let t = noc.transfer(0, c(0, 0), c(0, 1), bytes, Plane::Dma);
        let flits = bytes / FLIT_BYTES + HEADER_FLITS;
        assert_eq!(t.flits, flits);
        // Serialization dominates: latency ≈ flits + hop latency.
        assert_eq!(t.latency(), flits + HOP_LATENCY);
    }
}
