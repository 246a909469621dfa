//! The strategy list the differential suites share.

use inc_cfd::incdetect::optimize::OptimizeConfig;
use inc_cfd::prelude::*;
use std::sync::Arc;

/// The nine configurations every differential suite drives over one
/// `(schema, Σ)`: each of the paper's eight algorithms once, plus `incHor`
/// shipping raw values. A caller adds its own `.analyze(..)` if it needs
/// one and calls `build_detector`.
pub(crate) fn nine_suites(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    vscheme: &VerticalScheme,
    hscheme: &HorizontalScheme,
    yscheme: &HybridScheme,
    opt: OptimizeConfig,
) -> Vec<(&'static str, Suite)> {
    let base = Suite::on(schema.clone()).cfds(cfds.to_vec());
    let on = |strategy| base.clone().strategy(strategy);
    let (v, h) = (|| vscheme.clone(), || hscheme.clone());
    let raw = on(Strategy::Horizontal(h())).codec(CodecKind::RawValues);
    vec![
        ("incVer", on(Strategy::Vertical(v()))),
        ("optVer", on(Strategy::OptimizedVertical(v(), opt))),
        ("incHor", on(Strategy::Horizontal(h()))),
        ("incHor/raw", raw),
        ("incHyb", on(Strategy::Hybrid(yscheme.clone()))),
        ("batVer", on(Strategy::BatVer(v()))),
        ("batHor", on(Strategy::BatHor(h()))),
        ("ibatVer", on(Strategy::IbatVer(v()))),
        ("ibatHor", on(Strategy::IbatHor(h()))),
    ]
}
