//! Scenario definitions: named, seeded load shapes over the workload
//! generators.
//!
//! A [`Scenario`] bundles a dataset (schema, rules, base relation and the
//! partition schemes every strategy needs) with a recipe for the update
//! stream that will be pushed through a detector: how many operations
//! arrive per tick ([`ArrivalShape`]), which live tuples they target
//! ([`KeyDist`]), what kind of operations they are ([`OpMix`]) and how
//! often an arriving tuple is dirty ([`DirtyRate`]). Everything is
//! derived from one seed — the same scenario always produces the same
//! byte-identical stream, which is what lets the tests pin the
//! deterministic counts of a run.
//!
//! The stock scenarios live in [`catalog`]; custom ones are plain
//! [`ScenarioCfg`] values (see `examples/load_stream.rs`).

use cfd::Cfd;
use cluster::partition::{HorizontalScheme, VerticalScheme};
use incdetect::HybridScheme;
use relation::{AttrId, Relation, Schema};
use std::sync::Arc;
use workload::{dblp, emp, rules, tpch};

use crate::stream::UpdateStream;

/// Which workload generator backs the scenario's base relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's EMP running example, scaled ([`workload::emp`]).
    Emp,
    /// The synthetic DBLP bibliography ([`workload::dblp`]).
    Dblp,
    /// The denormalized TPCH order table ([`workload::tpch`]).
    Tpch,
}

/// Everything a detector needs to be built for a scenario, plus the
/// attribute lists the stream mutates.
pub struct Dataset {
    /// Global schema.
    pub schema: Arc<Schema>,
    /// Rule set `Σ`.
    pub cfds: Vec<Cfd>,
    /// Base relation `D₀`.
    pub base: Relation,
    /// Vertical partition for `incVer`-family strategies.
    pub vertical: VerticalScheme,
    /// Horizontal partition for `incHor`-family strategies.
    pub horizontal: HorizontalScheme,
    /// Two-level topology for `incHyb`.
    pub hybrid: HybridScheme,
    /// Dependent attributes whose corruption creates violations.
    pub dirty_attrs: Vec<AttrId>,
    /// A rule-free attribute safe to rewrite in clean modifications.
    pub benign_attr: AttrId,
}

/// Operations arriving per tick.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalShape {
    /// Constant rate.
    Steady {
        /// Operations every tick.
        per_tick: usize,
    },
    /// On/off square wave: `burst` ops during `on_ticks`, `idle` ops
    /// during `off_ticks`, repeating.
    Bursty {
        /// Operations per tick while the burst is on.
        burst: usize,
        /// Operations per tick while idle.
        idle: usize,
        /// Length of the on phase.
        on_ticks: usize,
        /// Length of the off phase.
        off_ticks: usize,
    },
    /// Linear ramp from `from` ops/tick at tick 0 to `to` at the last
    /// tick.
    Ramp {
        /// Rate at the first tick.
        from: usize,
        /// Rate at the last tick.
        to: usize,
    },
}

impl ArrivalShape {
    /// Number of operations arriving at `tick` of `total_ticks`.
    pub(crate) fn updates_at(&self, tick: usize, total_ticks: usize) -> usize {
        match *self {
            ArrivalShape::Steady { per_tick } => per_tick,
            ArrivalShape::Bursty {
                burst,
                idle,
                on_ticks,
                off_ticks,
            } => {
                let period = (on_ticks + off_ticks).max(1);
                if tick % period < on_ticks {
                    burst
                } else {
                    idle
                }
            }
            ArrivalShape::Ramp { from, to } => {
                if total_ticks <= 1 {
                    return to;
                }
                // Integer interpolation; endpoints exact.
                let span = total_ticks - 1;
                if to >= from {
                    from + (to - from) * tick / span
                } else {
                    from - (from - to) * tick / span
                }
            }
        }
    }

    /// Total operations over a whole run — the fresh-tuple pool bound.
    pub(crate) fn total_updates(&self, total_ticks: usize) -> usize {
        (0..total_ticks)
            .map(|t| self.updates_at(t, total_ticks))
            .sum()
    }
}

/// How delete/modify/churn victims are drawn from the live tuples.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    /// Every live tuple equally likely.
    Uniform,
    /// Rank-skewed: a few hot ranks absorb most operations
    /// ([`rand::dist::Zipf`] with exponent `theta`).
    Zipf {
        /// Skew exponent; 0 = uniform, ≥ 1 = heavily skewed.
        theta: f64,
    },
}

/// Integer operation weights (no floats: same draw on every platform).
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Weight of insertions of fresh tuples.
    pub insert: u32,
    /// Weight of deletions of live tuples.
    pub delete: u32,
    /// Weight of modifications (delete + re-insert with one attribute
    /// rewritten, same tuple id).
    pub modify: u32,
    /// Weight of churn (delete + identical re-insert, same tuple id —
    /// settles to a no-op `ΔV`).
    pub churn: u32,
}

impl OpMix {
    /// The paper's §7 default leaning: mostly insertions, some deletions.
    pub(crate) fn paper_default() -> Self {
        OpMix {
            insert: 8,
            delete: 2,
            modify: 0,
            churn: 0,
        }
    }

    pub(crate) fn total(&self) -> u32 {
        self.insert + self.delete + self.modify + self.churn
    }
}

/// Probability that an arriving insert/modify carries dirty data.
#[derive(Debug, Clone, Copy)]
pub enum DirtyRate {
    /// Constant probability.
    Fixed(f64),
    /// Linear ramp over the run (e.g. clean start degrading to 20%).
    Ramp {
        /// Rate at the first tick.
        from: f64,
        /// Rate at the last tick.
        to: f64,
    },
}

impl DirtyRate {
    /// Dirty probability at `tick` of `total_ticks`.
    pub fn at(&self, tick: usize, total_ticks: usize) -> f64 {
        match *self {
            DirtyRate::Fixed(p) => p,
            DirtyRate::Ramp { from, to } => {
                if total_ticks <= 1 {
                    return to;
                }
                from + (to - from) * tick as f64 / (total_ticks - 1) as f64
            }
        }
    }
}

/// A fully-specified load scenario (see module docs).
#[derive(Debug, Clone)]
pub struct ScenarioCfg {
    /// Report key, e.g. `"zipf_hot"`.
    pub name: &'static str,
    /// Backing dataset generator.
    pub workload: WorkloadKind,
    /// Base relation size.
    pub n_rows: usize,
    /// Sites for the vertical/horizontal schemes (EMP's horizontal
    /// scheme is fixed at its three grade fragments regardless).
    pub n_sites: usize,
    /// Stream length in ticks.
    pub ticks: usize,
    /// Arrival shape.
    pub shape: ArrivalShape,
    /// Victim-key distribution.
    pub keys: KeyDist,
    /// Operation mix.
    pub mix: OpMix,
    /// Dirty-data schedule.
    pub dirty: DirtyRate,
    /// Master seed: dataset and stream derive from it.
    pub seed: u64,
}

/// A named source of (dataset, stream) pairs the load driver can run.
///
/// [`ScenarioCfg`] is the stock implementation; anything that can
/// produce a deterministic [`UpdateStream`] can implement it.
pub trait Scenario {
    /// Report key for this scenario.
    fn name(&self) -> &str;
    /// Build the base dataset (same value on every call).
    fn dataset(&self) -> Dataset;
    /// Build the update stream over a dataset from [`Self::dataset`].
    fn stream(&self, dataset: &Dataset) -> UpdateStream;
}

impl Scenario for ScenarioCfg {
    fn name(&self) -> &str {
        self.name
    }

    fn dataset(&self) -> Dataset {
        build_dataset(self)
    }

    fn stream(&self, dataset: &Dataset) -> UpdateStream {
        UpdateStream::new(self, dataset)
    }
}

fn attr(schema: &Schema, name: &str) -> AttrId {
    schema.attr_id(name).expect("workload attribute exists")
}

fn build_dataset(cfg: &ScenarioCfg) -> Dataset {
    // Base data is generated clean; the *stream* injects dirt per its
    // schedule, so the dirty rate is observable in ΔV rather than V₀.
    match cfg.workload {
        WorkloadKind::Emp => {
            let gen = emp::EmpConfig {
                n_rows: cfg.n_rows,
                n_zips: (cfg.n_rows / 40).max(20),
                error_rate: 0.0,
                seed: cfg.seed,
            };
            let (schema, base) = emp::generate(&gen);
            let cfds = emp::emp_cfds(&schema);
            let vertical = emp::emp_vertical_scheme(&schema);
            let horizontal = emp::emp_horizontal_scheme(&schema);
            let hybrid =
                HybridScheme::uniform(schema.clone(), 2, 2).expect("uniform hybrid over EMP");
            let dirty_attrs = vec![attr(&schema, "street"), attr(&schema, "city")];
            let benign_attr = attr(&schema, "phn");
            Dataset {
                schema,
                cfds,
                base,
                vertical,
                horizontal,
                hybrid,
                dirty_attrs,
                benign_attr,
            }
        }
        WorkloadKind::Dblp => {
            let gen = dblp::DblpConfig {
                n_rows: cfg.n_rows,
                n_venues: (cfg.n_rows / 25).max(20),
                n_authors: (cfg.n_rows / 3).max(50),
                error_rate: 0.0,
                seed: cfg.seed,
            };
            let (schema, base) = dblp::generate(&gen);
            let cfds = rules::dblp_rules(&schema, 8, cfg.seed);
            let vertical = dblp::vertical_scheme(&schema, cfg.n_sites);
            let horizontal = dblp::horizontal_scheme(&schema, cfg.n_sites);
            let hybrid =
                HybridScheme::uniform(schema.clone(), 2, 2).expect("uniform hybrid over DBLP");
            let dirty_attrs = vec![attr(&schema, "venue"), attr(&schema, "publisher")];
            let benign_attr = attr(&schema, "pages");
            Dataset {
                schema,
                cfds,
                base,
                vertical,
                horizontal,
                hybrid,
                dirty_attrs,
                benign_attr,
            }
        }
        WorkloadKind::Tpch => {
            let gen = tpch::TpchConfig {
                n_rows: cfg.n_rows,
                n_customers: (cfg.n_rows / 20).max(25),
                n_parts: (cfg.n_rows / 30).max(20),
                n_suppliers: (cfg.n_rows / 100).max(10),
                error_rate: 0.0,
                seed: cfg.seed,
            };
            let (schema, base) = tpch::generate(&gen);
            let cfds = rules::tpch_rules(&schema, 8, cfg.seed);
            let vertical = tpch::vertical_scheme(&schema, cfg.n_sites);
            let horizontal = tpch::horizontal_scheme(&schema, cfg.n_sites);
            let hybrid =
                HybridScheme::uniform(schema.clone(), 2, 2).expect("uniform hybrid over TPCH");
            let dirty_attrs = vec![
                attr(&schema, "nation"),
                attr(&schema, "region"),
                attr(&schema, "custname"),
            ];
            let benign_attr = attr(&schema, "clerk");
            Dataset {
                schema,
                cfds,
                base,
                vertical,
                horizontal,
                hybrid,
                dirty_attrs,
                benign_attr,
            }
        }
    }
}

/// Fresh-tuple pool for a scenario's insertions: `n` clean tuples with
/// tids following the base relation. Clean by construction — the stream
/// corrupts them per its [`DirtyRate`] at arrival time.
pub(crate) fn fresh_pool(cfg: &ScenarioCfg, dataset: &Dataset, n: usize) -> Vec<relation::Tuple> {
    let start = dataset.base.max_tid().map_or(0, |t| t + 1);
    let seed = cfg.seed ^ 0x5eed_f00d;
    match cfg.workload {
        WorkloadKind::Emp => {
            let gen = emp::EmpConfig {
                n_rows: cfg.n_rows,
                n_zips: (cfg.n_rows / 40).max(20),
                error_rate: 0.0,
                seed: cfg.seed,
            };
            emp::generate_fresh(&gen, start, n, seed)
        }
        WorkloadKind::Dblp => {
            let gen = dblp::DblpConfig {
                n_rows: cfg.n_rows,
                n_venues: (cfg.n_rows / 25).max(20),
                n_authors: (cfg.n_rows / 3).max(50),
                error_rate: 0.0,
                seed: cfg.seed,
            };
            dblp::generate_fresh(&gen, start, n, seed)
        }
        WorkloadKind::Tpch => {
            let gen = tpch::TpchConfig {
                n_rows: cfg.n_rows,
                n_customers: (cfg.n_rows / 20).max(25),
                n_parts: (cfg.n_rows / 30).max(20),
                n_suppliers: (cfg.n_rows / 100).max(10),
                error_rate: 0.0,
                seed: cfg.seed,
            };
            tpch::generate_fresh(&gen, start, n, seed)
        }
    }
}

/// The stock scenario set: 800-row bases and 40-tick streams, seconds per
/// scenario. Names are stable keys — `tests/gated_integers.rs` pins each
/// scenario's counts under its name.
pub fn catalog() -> Vec<ScenarioCfg> {
    // (rows, ticks, unit) — `unit` scales the per-tick arrival rates.
    let (rows, ticks, unit) = (800, 40, 6);
    vec![
        // Constant-rate control: the paper's 80/20 insert/delete mix over
        // uniformly drawn victims.
        ScenarioCfg {
            name: "steady_uniform",
            workload: WorkloadKind::Emp,
            n_rows: rows,
            n_sites: 3,
            ticks,
            shape: ArrivalShape::Steady { per_tick: unit },
            keys: KeyDist::Uniform,
            mix: OpMix::paper_default(),
            dirty: DirtyRate::Fixed(0.05),
            seed: 0xB10C,
        },
        // On/off square wave: 4 ticks of 4× load, 4 ticks of trickle.
        ScenarioCfg {
            name: "bursty_onoff",
            workload: WorkloadKind::Dblp,
            n_rows: rows,
            n_sites: 5,
            ticks,
            shape: ArrivalShape::Bursty {
                burst: unit * 4,
                idle: unit / 3,
                on_ticks: 4,
                off_ticks: 4,
            },
            keys: KeyDist::Uniform,
            mix: OpMix {
                insert: 6,
                delete: 2,
                modify: 2,
                churn: 0,
            },
            dirty: DirtyRate::Fixed(0.05),
            seed: 0xB02,
        },
        // Modification-heavy with Zipf-skewed hot keys: a handful of
        // tuples absorb most rewrites.
        ScenarioCfg {
            name: "zipf_hot",
            workload: WorkloadKind::Tpch,
            n_rows: rows,
            n_sites: 5,
            ticks,
            shape: ArrivalShape::Steady { per_tick: unit },
            keys: KeyDist::Zipf { theta: 1.1 },
            mix: OpMix {
                insert: 2,
                delete: 1,
                modify: 6,
                churn: 1,
            },
            dirty: DirtyRate::Fixed(0.1),
            seed: 0x21FF,
        },
        // Delete-heavy churn: tuples leave and return, mostly unchanged.
        ScenarioCfg {
            name: "churn_delete_heavy",
            workload: WorkloadKind::Tpch,
            n_rows: rows,
            n_sites: 5,
            ticks,
            shape: ArrivalShape::Steady { per_tick: unit },
            keys: KeyDist::Uniform,
            mix: OpMix {
                insert: 2,
                delete: 3,
                modify: 0,
                churn: 5,
            },
            dirty: DirtyRate::Fixed(0.05),
            seed: 0xC4,
        },
        // Data-quality decay: clean stream degrading to 20% dirty.
        ScenarioCfg {
            name: "dirty_ramp",
            workload: WorkloadKind::Dblp,
            n_rows: rows,
            n_sites: 5,
            ticks,
            shape: ArrivalShape::Ramp {
                from: unit / 2,
                to: unit * 2,
            },
            keys: KeyDist::Uniform,
            mix: OpMix {
                insert: 5,
                delete: 2,
                modify: 3,
                churn: 0,
            },
            dirty: DirtyRate::Ramp { from: 0.0, to: 0.2 },
            seed: 0xD124,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_interpolate_correctly() {
        let s = ArrivalShape::Steady { per_tick: 7 };
        assert_eq!(s.updates_at(0, 10), 7);
        assert_eq!(s.total_updates(10), 70);

        let b = ArrivalShape::Bursty {
            burst: 20,
            idle: 2,
            on_ticks: 3,
            off_ticks: 2,
        };
        let got: Vec<usize> = (0..7).map(|t| b.updates_at(t, 7)).collect();
        assert_eq!(got, vec![20, 20, 20, 2, 2, 20, 20]);

        let r = ArrivalShape::Ramp { from: 0, to: 10 };
        assert_eq!(r.updates_at(0, 11), 0);
        assert_eq!(r.updates_at(10, 11), 10);
        let down = ArrivalShape::Ramp { from: 10, to: 0 };
        assert_eq!(down.updates_at(0, 11), 10);
        assert_eq!(down.updates_at(10, 11), 0);
    }

    #[test]
    fn dirty_rate_ramps() {
        let d = DirtyRate::Ramp { from: 0.0, to: 0.2 };
        assert_eq!(d.at(0, 5), 0.0);
        assert!((d.at(4, 5) - 0.2).abs() < 1e-12);
        assert_eq!(DirtyRate::Fixed(0.07).at(3, 5), 0.07);
    }

    #[test]
    fn catalog_has_stable_names_and_builds() {
        let quick = catalog();
        let names: Vec<&str> = quick.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "steady_uniform",
                "bursty_onoff",
                "zipf_hot",
                "churn_delete_heavy",
                "dirty_ramp"
            ]
        );
        for cfg in &quick {
            let ds = cfg.dataset();
            assert_eq!(ds.base.len(), cfg.n_rows);
            assert!(!ds.cfds.is_empty());
            assert!(!ds.dirty_attrs.is_empty());
            // Clean base: dirt comes from the stream, not D₀.
            assert!(cfd::naive::detect(&ds.cfds, &ds.base).is_empty());
        }
    }
}
