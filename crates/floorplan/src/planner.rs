//! The FLORA-style best-fit floorplanner.

use crate::error::Error;
use presp_fpga::fabric::Device;
use presp_fpga::pblock::Pblock;
use presp_fpga::resources::Resources;
use std::collections::BTreeMap;

/// A reconfigurable region to be floorplanned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionRequest {
    /// Region name (e.g. the reconfigurable tile's instance name).
    pub name: String,
    /// Post-synthesis resource requirement: the component-wise maximum over
    /// every reconfigurable module that may be loaded into the region.
    pub resources: Resources,
}

impl RegionRequest {
    /// Creates a request.
    pub fn new(name: impl Into<String>, resources: Resources) -> RegionRequest {
        RegionRequest {
            name: name.into(),
            resources,
        }
    }
}

/// Target fill of a pblock: the rectangle must provide at least
/// `required / MAX_UTILIZATION` so the router has slack. Vivado DPR
/// guidance keeps reconfigurable partitions below ~80 % LUT fill.
const MAX_UTILIZATION: f64 = 0.8;

/// The result of floorplanning: one pblock per request.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    pblocks: BTreeMap<String, Pblock>,
}

impl Floorplan {
    /// The placed pblocks, keyed by region name.
    pub fn pblocks(&self) -> &BTreeMap<String, Pblock> {
        &self.pblocks
    }

    /// The pblock placed for `name`.
    pub fn pblock(&self, name: &str) -> Option<&Pblock> {
        self.pblocks.get(name)
    }
}

/// Deterministic best-fit DPR floorplanner.
#[derive(Debug, Clone)]
pub struct Floorplanner {
    device: Device,
}

impl Floorplanner {
    /// Creates a floorplanner for `device`.
    pub fn new(device: &Device) -> Floorplanner {
        Floorplanner {
            device: device.clone(),
        }
    }

    /// Floorplans all requests.
    ///
    /// Requests are placed in descending LUT order (largest first — the
    /// standard bin-packing heuristic); each is assigned the legal,
    /// non-overlapping rectangle that wastes the fewest LUTs, with area as
    /// the tie-breaker.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateName`] for repeated names,
    /// [`Error::RequestExceedsDevice`] when a single request cannot fit the
    /// device even empty, and [`Error::NoSpace`] when placement fails due to
    /// fragmentation or earlier placements.
    pub fn floorplan(&self, requests: &[RegionRequest]) -> Result<Floorplan, Error> {
        let mut seen = std::collections::BTreeSet::new();
        for r in requests {
            if !seen.insert(&r.name) {
                return Err(Error::DuplicateName {
                    name: r.name.clone(),
                });
            }
        }

        let mut order: Vec<&RegionRequest> = requests.iter().collect();
        order.sort_by(|a, b| {
            b.resources
                .lut
                .cmp(&a.resources.lut)
                .then(a.name.cmp(&b.name))
        });

        let device_total = self.device.total_resources();
        let mut placed: Vec<Pblock> = Vec::new();
        let mut pblocks = BTreeMap::new();

        for request in order {
            let need = request.resources.scale_ceil(1.0 / MAX_UTILIZATION);
            if !need.fits_in(&device_total) {
                return Err(Error::RequestExceedsDevice {
                    name: request.name.clone(),
                });
            }
            let pblock = self
                .best_rectangle(&need, &placed)
                .ok_or_else(|| Error::NoSpace {
                    name: request.name.clone(),
                })?;
            placed.push(pblock);
            pblocks.insert(request.name.clone(), pblock);
        }

        Ok(Floorplan { pblocks })
    }

    /// Enumerates legal candidate rectangles and returns the one wasting the
    /// fewest LUTs (area tie-break, then top-left position for determinism).
    fn best_rectangle(&self, need: &Resources, placed: &[Pblock]) -> Option<Pblock> {
        let rows = self.device.rows();
        let cols = self.device.columns();
        let mut best: Option<(u64, usize, Pblock)> = None;

        for row_span in 1..=rows {
            for row_start in 0..=(rows - row_span) {
                for col_start in 0..cols {
                    // Grow the column span until the rectangle satisfies the
                    // requirement, hits an illegal column, the edge, or an
                    // existing pblock.
                    let mut acc = Resources::ZERO;
                    for col_end in (col_start + 1)..=cols {
                        let col = col_end - 1;
                        if !self.device.column_kind(col).reconfigurable() {
                            break;
                        }
                        let candidate =
                            Pblock::new(col_start, col_end, row_start, row_start + row_span)
                                .expect("non-empty by construction");
                        if placed.iter().any(|p| p.overlaps(&candidate)) {
                            break;
                        }
                        acc += self.device.column_kind(col).resources_per_row() * row_span as u64;
                        if need.fits_in(&acc) {
                            let waste = acc.lut - need.lut.min(acc.lut);
                            let area = candidate.area();
                            let better = match &best {
                                None => true,
                                Some((bw, ba, _)) => (waste, area) < (*bw, *ba),
                            };
                            if better {
                                best = Some((waste, area, candidate));
                            }
                            break; // wider rectangles only waste more
                        }
                    }
                }
            }
            // Prefer the shortest rectangle that fits: if any candidate was
            // found at this row span, taller spans only increase waste.
            if best.is_some() {
                break;
            }
        }
        best.map(|(_, _, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::part::FpgaPart;
    use proptest::prelude::*;

    fn device() -> Device {
        FpgaPart::Vc707.device()
    }

    fn check_plan(device: &Device, requests: &[RegionRequest], plan: &Floorplan) {
        let pblocks: Vec<Pblock> = plan.pblocks().values().copied().collect();
        Pblock::check_disjoint(&pblocks).expect("pblocks are disjoint");
        for request in requests {
            let pb = plan.pblock(&request.name).expect("every request is placed");
            device.validate_pblock(pb).expect("pblock is legal");
            let cap = device.pblock_resources(pb).unwrap();
            let need = request.resources.scale_ceil(1.0 / MAX_UTILIZATION);
            assert!(need.fits_in(&cap), "{}: need {need} in {cap}", request.name);
        }
    }

    #[test]
    fn places_single_small_region() {
        let d = device();
        let reqs = vec![RegionRequest::new(
            "rt0",
            Resources::new(2_450, 3_150, 2, 5),
        )];
        let plan = Floorplanner::new(&d).floorplan(&reqs).unwrap();
        check_plan(&d, &reqs, &plan);
        // A MAC-sized region should fit in a single clock-region row.
        assert_eq!(plan.pblock("rt0").unwrap().row_span(), 1);
    }

    #[test]
    fn places_wami_sized_regions() {
        let d = device();
        let reqs = vec![
            RegionRequest::new("rt0", Resources::new(34_000, 44_500, 40, 72)),
            RegionRequest::new("rt1", Resources::new(30_000, 39_100, 16, 84)),
            RegionRequest::new("rt2", Resources::new(24_000, 31_300, 16, 60)),
            RegionRequest::new("rt3", Resources::new(21_500, 28_000, 8, 36)),
        ];
        let plan = Floorplanner::new(&d).floorplan(&reqs).unwrap();
        check_plan(&d, &reqs, &plan);
        // The static part must keep meaningful headroom (CPU+MEM+AUX need
        // ~85k LUTs).
        let provided: Resources = plan
            .pblocks()
            .values()
            .map(|p| d.pblock_resources(p).unwrap())
            .sum();
        let headroom = d.total_resources().saturating_sub(&provided);
        assert!(headroom.lut > 85_000, "headroom {headroom}");
    }

    #[test]
    fn rejects_duplicate_names() {
        let d = device();
        let reqs = vec![
            RegionRequest::new("rt", Resources::luts(100)),
            RegionRequest::new("rt", Resources::luts(200)),
        ];
        assert_eq!(
            Floorplanner::new(&d).floorplan(&reqs),
            Err(Error::DuplicateName { name: "rt".into() })
        );
    }

    #[test]
    fn rejects_impossible_request() {
        let d = device();
        let reqs = vec![RegionRequest::new("huge", Resources::luts(10_000_000))];
        assert_eq!(
            Floorplanner::new(&d).floorplan(&reqs),
            Err(Error::RequestExceedsDevice {
                name: "huge".into()
            })
        );
    }

    #[test]
    fn fails_cleanly_when_device_is_full() {
        let d = device();
        // Twelve 80k-LUT regions cannot coexist on a 300k device at 80 % fill.
        let reqs: Vec<RegionRequest> = (0..12)
            .map(|i| RegionRequest::new(format!("rt{i}"), Resources::luts(80_000)))
            .collect();
        match Floorplanner::new(&d).floorplan(&reqs) {
            Err(Error::NoSpace { .. }) => {}
            other => panic!("expected NoSpace, got {other:?}"),
        }
    }

    #[test]
    fn utilization_margin_grows_pblocks() {
        let d = device();
        let reqs = vec![RegionRequest::new("rt", Resources::luts(20_000))];
        let plan = Floorplanner::new(&d).floorplan(&reqs).unwrap();
        let cap = d.pblock_resources(plan.pblock("rt").unwrap()).unwrap().lut;
        assert!(cap >= 25_000, "20k LUTs at 80 % fill need 25k, got {cap}");
    }

    #[test]
    fn floorplan_is_deterministic() {
        let d = device();
        let reqs = vec![
            RegionRequest::new("a", Resources::luts(15_000)),
            RegionRequest::new("b", Resources::luts(15_000)),
            RegionRequest::new("c", Resources::luts(9_000)),
        ];
        let p1 = Floorplanner::new(&d).floorplan(&reqs).unwrap();
        let p2 = Floorplanner::new(&d).floorplan(&reqs).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn equal_requests_get_equal_capacity() {
        let d = device();
        let reqs = vec![
            RegionRequest::new("x", Resources::luts(10_000)),
            RegionRequest::new("y", Resources::luts(10_000)),
        ];
        let plan = Floorplanner::new(&d).floorplan(&reqs).unwrap();
        let cx = d.pblock_resources(plan.pblock("x").unwrap()).unwrap();
        let cy = d.pblock_resources(plan.pblock("y").unwrap()).unwrap();
        assert_eq!(cx.lut, cy.lut);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn plans_are_always_legal(
            luts in proptest::collection::vec(1_000u64..45_000, 1..6),
        ) {
            let d = device();
            let reqs: Vec<RegionRequest> = luts
                .iter()
                .enumerate()
                .map(|(i, &l)| RegionRequest::new(format!("rt{i}"), Resources::new(l, l * 13 / 10, l / 700, l / 400)))
                .collect();
            match Floorplanner::new(&d).floorplan(&reqs) {
                Ok(plan) => check_plan(&d, &reqs, &plan),
                Err(Error::NoSpace { .. }) => {} // acceptable: fragmentation
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
            }
        }
    }
}
