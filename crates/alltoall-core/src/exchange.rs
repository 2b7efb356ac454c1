//! High-level API: run the proposed algorithm on any torus shape.
//!
//! [`Exchange`] handles the two gaps between a user's shape and the
//! algorithm's canonical form:
//!
//! * **orientation** — the paper assumes `a_1 ≥ a_2 ≥ … ≥ a_n`; arbitrary
//!   dimension orders are permuted internally and results mapped back;
//! * **granularity** — extents that are not multiples of four are padded
//!   with virtual nodes (Section 6; see [`crate::virtualnodes`]).

use cost_model::{CommParams, CompletionTime};
use torus_sim::Engine;
use torus_topology::{NodeId, TorusShape};

use crate::block::Buffers;
use crate::exec::ExchangeError;
use crate::observer::{NullObserver, Observer};
use crate::report::ExchangeReport;
use crate::steps::StepPlan;
use crate::verify::verify_delivery;
use crate::virtualnodes::Padding;

/// The largest padded extent the schedule supports: a block's remaining
/// 4-stride shifts per phase are `u8` counters.
const MAX_PADDED_EXTENT: u32 = 1024;

/// A configured all-to-all personalized exchange on one torus.
#[derive(Clone, Debug)]
pub struct Exchange {
    orig: TorusShape,
    padding: Padding,
    /// Canonicalizing permutation of the padded shape's dimensions.
    perm: Vec<usize>,
    canon: TorusShape,
}

impl Exchange {
    /// Prepares an exchange for `shape`.
    ///
    /// Any extents up to 1024 after padding are accepted (padding applies);
    /// at least two dimensions are required — for a ring, model it as an
    /// `k × 4`-style 2D torus or use a baseline algorithm.
    pub fn new(shape: &TorusShape) -> Result<Self, ExchangeError> {
        if shape.ndims() < 2 {
            return Err(ExchangeError::BadShape(format!(
                "the algorithms are defined for n >= 2 dimensions, got {shape}"
            )));
        }
        let padding = Padding::new(shape);
        if let Some(&k) = padding
            .padded()
            .dims()
            .iter()
            .find(|&&k| k > MAX_PADDED_EXTENT)
        {
            return Err(ExchangeError::BadShape(format!(
                "{shape} pads to an extent of {k}; at most {MAX_PADDED_EXTENT} is supported"
            )));
        }
        let (perm, canon) = padding.padded().canonical_permutation();
        Ok(Self {
            orig: shape.clone(),
            padding,
            perm,
            canon,
        })
    }

    /// The canonical shape that will actually be executed.
    pub fn executed_shape(&self) -> &TorusShape {
        &self.canon
    }

    /// The original (user-facing) shape.
    pub fn shape_ref(&self) -> &TorusShape {
        &self.orig
    }

    /// Whether virtual-node padding is in effect.
    pub fn is_padded(&self) -> bool {
        self.padding.is_padded()
    }

    /// Maps an original node id to its id in the canonical executed shape.
    pub fn to_canonical(&self, id: NodeId) -> NodeId {
        let padded_coord = self.padding.real().coord_of(id);
        let canon_coord = TorusShape::permute_coord(&padded_coord, &self.perm);
        self.canon.index_of(&canon_coord)
    }

    /// Maps a canonical node id back to the original id (`None` for
    /// virtual nodes).
    pub fn from_canonical(&self, id: NodeId) -> Option<NodeId> {
        let canon_coord = self.canon.coord_of(id);
        let padded_coord = TorusShape::unpermute_coord(&canon_coord, &self.perm);
        self.padding
            .is_real(&padded_coord)
            .then(|| self.orig.index_of(&padded_coord))
    }

    /// Runs a counting-mode exchange (no payloads) and verifies delivery.
    pub fn run_counting(&self, params: &CommParams) -> Result<ExchangeReport, ExchangeError> {
        self.run_observed(params, &mut NullObserver)
    }

    /// Runs a counting-mode exchange with an [`Observer`] receiving
    /// per-step buffer snapshots (canonical node ids).
    pub fn run_observed<O: Observer<()>>(
        &self,
        params: &CommParams,
        observer: &mut O,
    ) -> Result<ExchangeReport, ExchangeError> {
        let (report, _, _) = self.run_impl(params, observer, |_, _| ())?;
        Ok(report)
    }

    /// Runs a data-carrying exchange: `payload(src, dst)` (original ids)
    /// produces each block's payload. Returns the report plus, for every
    /// original node, the delivered `(source, payload)` pairs sorted by
    /// source.
    #[allow(clippy::type_complexity)]
    pub fn run_with_payloads<P, F>(
        &self,
        params: &CommParams,
        payload: F,
    ) -> Result<(ExchangeReport, Vec<Vec<(NodeId, P)>>), ExchangeError>
    where
        P: Clone,
        F: FnMut(NodeId, NodeId) -> P,
    {
        let (report, bufs, canon_ids) = self.run_impl(params, &mut NullObserver, payload)?;
        // Collect payloads back in original ids.
        let deliveries = canon_ids
            .iter()
            .map(|&cd| {
                let mut got: Vec<(NodeId, P)> = bufs
                    .node(cd)
                    .iter()
                    .map(|b| {
                        let orig_src = self
                            .from_canonical(b.src)
                            .expect("delivered blocks originate from real nodes");
                        (orig_src, b.payload.clone())
                    })
                    .collect();
                got.sort_by_key(|(s, _)| *s);
                got
            })
            .collect();
        Ok((report, deliveries))
    }

    /// Seeds one block per ordered pair of real nodes, walks the plan and
    /// verifies delivery. Returns the report, the final buffers and the
    /// real nodes' canonical ids.
    fn run_impl<P, F, O>(
        &self,
        params: &CommParams,
        observer: &mut O,
        mut payload: F,
    ) -> Result<(ExchangeReport, Buffers<P>, Vec<NodeId>), ExchangeError>
    where
        P: Clone,
        F: FnMut(NodeId, NodeId) -> P,
        O: Observer<P>,
    {
        let canon_ids = self.canonical_ids();
        let real_n = canon_ids.len() as NodeId;
        let pairs = (0..real_n)
            .flat_map(|s| (0..real_n).map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .map(|(s, d)| (canon_ids[s as usize], canon_ids[d as usize], payload(s, d)));
        let mut bufs = Buffers::seeded(&self.canon, pairs);
        let mut engine = Engine::new(&self.canon, *params);
        StepPlan::new(&self.canon).execute(&mut bufs, &mut engine, observer)?;
        verify_delivery(&bufs, &self.expected_delivery(&canon_ids))?;
        Ok((self.report(params, &engine, true), bufs, canon_ids))
    }

    /// Canonical ids of the real nodes, indexed by original id.
    pub(crate) fn canonical_ids(&self) -> Vec<NodeId> {
        (0..self.orig.num_nodes())
            .map(|id| self.to_canonical(id))
            .collect()
    }

    /// The expected-delivery table (canonical ids): every real node must
    /// end with one block from every other real node; virtual nodes with
    /// nothing.
    pub(crate) fn expected_delivery(&self, canon_ids: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut expected: Vec<Vec<NodeId>> = vec![Vec::new(); self.canon.num_nodes() as usize];
        for &cd in canon_ids {
            expected[cd as usize] = canon_ids.iter().copied().filter(|&cs| cs != cd).collect();
        }
        expected
    }

    /// The report of a finished run, read off its engine.
    pub(crate) fn report(
        &self,
        params: &CommParams,
        engine: &Engine,
        verified: bool,
    ) -> ExchangeReport {
        ExchangeReport {
            shape: self.orig.clone(),
            executed_shape: self.canon.clone(),
            padded: self.is_padded(),
            counts: engine.counts(),
            elapsed: engine.elapsed(),
            formula: cost_model::proposed_nd(self.canon.dims()),
            trace: engine.trace().clone(),
            verified,
            params: *params,
        }
    }

    /// Predicted completion time from the Table 1 closed form for this
    /// exchange's executed shape — no simulation.
    pub fn predicted_time(&self, params: &CommParams) -> CompletionTime {
        CompletionTime::from_counts(&cost_model::proposed_nd(self.canon.dims()), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiple_of_four_runs_exactly() {
        let e = Exchange::new(&TorusShape::new_2d(8, 8).unwrap()).unwrap();
        assert!(!e.is_padded());
        let r = e.run_counting(&CommParams::unit()).unwrap();
        assert!(r.verified);
        assert!(
            r.matches_formula(),
            "measured {:?} vs formula {:?}",
            r.counts,
            r.formula
        );
    }

    #[test]
    fn unsorted_dims_are_canonicalized() {
        let e = Exchange::new(&TorusShape::new_2d(12, 8).unwrap()).unwrap();
        assert_eq!(e.executed_shape().dims(), &[12, 8]);
        let e2 = Exchange::new(&TorusShape::new_2d(8, 12).unwrap()).unwrap();
        assert_eq!(e2.executed_shape().dims(), &[12, 8]);
        let r = e2.run_counting(&CommParams::unit()).unwrap();
        assert!(r.verified);
        assert_eq!(r.counts.startup_steps, 12 / 2 + 2);
    }

    #[test]
    fn padded_6x6_verifies() {
        let e = Exchange::new(&TorusShape::new_2d(6, 6).unwrap()).unwrap();
        assert!(e.is_padded());
        assert_eq!(e.executed_shape().dims(), &[8, 8]);
        let r = e.run_counting(&CommParams::unit()).unwrap();
        assert!(r.verified);
        assert!(r.matches_formula());
    }

    #[test]
    fn id_mapping_roundtrip() {
        let e = Exchange::new(&TorusShape::new(&[6, 10, 5]).unwrap()).unwrap();
        for id in 0..e.orig.num_nodes() {
            let c = e.to_canonical(id);
            assert_eq!(e.from_canonical(c), Some(id));
        }
    }

    #[test]
    fn payload_exchange_small() {
        let e = Exchange::new(&TorusShape::new_2d(4, 4).unwrap()).unwrap();
        let (r, deliveries) = e
            .run_with_payloads(&CommParams::unit(), |s, d| (s as u64) << 32 | d as u64)
            .unwrap();
        assert!(r.verified);
        for (d, got) in deliveries.iter().enumerate() {
            assert_eq!(got.len(), 15);
            for (s, p) in got {
                assert_eq!(*p, (*s as u64) << 32 | d as u64);
            }
            // sorted by source
            let srcs: Vec<NodeId> = got.iter().map(|(s, _)| *s).collect();
            let mut sorted = srcs.clone();
            sorted.sort_unstable();
            assert_eq!(srcs, sorted);
        }
    }

    #[test]
    fn rejects_1d() {
        assert!(matches!(
            Exchange::new(&TorusShape::new(&[16]).unwrap()),
            Err(ExchangeError::BadShape(_))
        ));
    }

    #[test]
    fn padded_extents_above_1024_are_bad_shapes() {
        for dims in [[1028, 4], [1025, 4], [4, 1025]] {
            assert!(
                matches!(
                    Exchange::new(&TorusShape::new(&dims).unwrap()),
                    Err(ExchangeError::BadShape(_))
                ),
                "{dims:?}"
            );
        }
        let e = Exchange::new(&TorusShape::new(&[1024, 4]).unwrap()).unwrap();
        assert_eq!(e.executed_shape().dims(), &[1024, 4]);
    }

    #[test]
    fn every_4_8_shape_up_to_512_nodes_matches_table1() {
        for shape in crate::schedule::shapes_4_8() {
            if shape.num_nodes() > 512 {
                continue;
            }
            let r = Exchange::new(&shape)
                .unwrap()
                .run_counting(&CommParams::unit())
                .unwrap();
            assert!(r.verified && r.matches_formula(), "{shape}: {:?}", r.counts);
        }
    }

    #[test]
    fn predicted_matches_unit_formula() {
        let e = Exchange::new(&TorusShape::new_2d(8, 8).unwrap()).unwrap();
        let t = e.predicted_time(&CommParams::unit());
        let f = cost_model::proposed_2d(8, 8);
        assert_eq!(t.startup, f.startup_steps as f64);
        assert_eq!(t.propagation, f.prop_hops as f64);
    }
}
