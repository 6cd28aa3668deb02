//! §5 autotuner, end to end: dynamic tuning with real execution over the
//! enumerated candidate space, agreement between static ranking and measured
//! behaviour on extreme workloads, and the enumeration-count experiment.

use relic_autotune::{Autotuner, Workload};
use relic_core::{RelRead, SynthRelation};
use relic_decomp::{enumerate_shapes, DsKind, EnumerateOptions};
use relic_spec::{Catalog, ColId, RelSpec, Tuple, Value};

fn graph() -> (Catalog, ColId, ColId, ColId, RelSpec) {
    let mut cat = Catalog::new();
    let src = cat.intern("src");
    let dst = cat.intern("dst");
    let weight = cat.intern("weight");
    let spec = RelSpec::new(src | dst | weight).with_fd(src | dst, weight.into());
    (cat, src, dst, weight, spec)
}

#[test]
fn dynamic_tuning_executes_every_candidate() {
    // A small but real benchmark closure: insert a fixed edge set, run
    // point + successor queries, delete half the edges. The autotuner must
    // run it for every candidate and sort by measured cost.
    let (cat, src, dst, weight, spec) = graph();
    let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
        max_edges: 2,
        structures: vec![DsKind::HashTable, DsKind::DList],
        ..Default::default()
    });
    let candidates = tuner.candidates().len();
    assert!(candidates >= 10, "got {candidates}");
    let mut runs = 0usize;
    let results = tuner.tune(|d| {
        runs += 1;
        let mut rel = SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
        rel.set_fd_checking(false);
        let start = std::time::Instant::now();
        for i in 0..120i64 {
            rel.insert(Tuple::from_pairs([
                (src, Value::from(i % 12)),
                (dst, Value::from((i * 7) % 12 + 1)),
                (weight, Value::from(i)),
            ]))
            .ok();
        }
        for v in 0..12i64 {
            let pat = Tuple::from_pairs([(src, Value::from(v))]);
            rel.query_for_each(&pat, dst.into(), |_| {}).unwrap();
        }
        for v in 0..6i64 {
            rel.remove(&Tuple::from_pairs([(src, Value::from(v))]))
                .unwrap();
        }
        start.elapsed().as_secs_f64()
    });
    assert_eq!(runs, candidates);
    assert_eq!(results.len(), candidates);
    assert!(results.windows(2).all(|w| w[0].cost <= w[1].cost));
    assert!(results[0].cost.is_finite());
}

#[test]
fn static_ranking_tracks_measured_extremes() {
    // For a point-lookup-only workload, the statically best candidate must
    // measurably beat the statically worst (both executed for real).
    let (cat, src, dst, weight, spec) = graph();
    let tuner = Autotuner::new(&spec)
        .with_options(EnumerateOptions {
            max_edges: 2,
            structures: vec![DsKind::HashTable, DsKind::DList],
            ..Default::default()
        })
        .with_relation_size(4096.0);
    let workload = Workload::new().query(src | dst, weight.into(), 1.0);
    let ranking = tuner.tune_static(&workload);
    let best = &ranking.first().unwrap().decomposition;
    let worst = &ranking
        .iter()
        .rev()
        .find(|r| r.cost.is_finite())
        .unwrap()
        .decomposition;
    let measure = |d: &relic_decomp::Decomposition| {
        let mut rel = SynthRelation::new(&cat, spec.clone(), d.clone()).unwrap();
        rel.set_fd_checking(false);
        for i in 0..2_000i64 {
            rel.insert(Tuple::from_pairs([
                (src, Value::from(i / 40)),
                (dst, Value::from(i % 40)),
                (weight, Value::from(i)),
            ]))
            .unwrap();
        }
        let start = std::time::Instant::now();
        for i in 0..2_000i64 {
            let pat = Tuple::from_pairs([(src, Value::from(i / 40)), (dst, Value::from(i % 40))]);
            rel.query_for_each(&pat, weight.into(), |_| {}).unwrap();
        }
        start.elapsed()
    };
    let t_best = measure(best);
    let t_worst = measure(worst);
    assert!(
        t_best < t_worst,
        "static best ({t_best:?}) should beat static worst ({t_worst:?})"
    );
}

#[test]
fn enumeration_counts_experiment() {
    // The paper reports 84 decompositions of ≤ 4 edges for the 3-column
    // relation; our broader generator finds more and must strictly
    // dominate the paper's count while agreeing on adequacy for every shape.
    let (_, _, _, _, spec) = graph();
    let counts: Vec<usize> = (1..=4)
        .map(|max| {
            enumerate_shapes(
                &spec,
                &EnumerateOptions {
                    max_edges: max,
                    ..Default::default()
                },
            )
            .len()
        })
        .collect();
    assert_eq!(
        counts[0], 2,
        "1-edge shapes: flat map, and map-to-unit-∅ chain"
    );
    assert!(counts[3] >= 84, "must cover at least the paper's 84 shapes");
    assert!(counts.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn tuner_respects_structure_palette() {
    let (_, _, _, _, spec) = graph();
    let tuner = Autotuner::new(&spec).with_options(EnumerateOptions {
        max_edges: 2,
        structures: vec![DsKind::AvlTree],
        ..Default::default()
    });
    for c in tuner.candidates() {
        assert!(c.edges().all(|(_, e)| e.ds == DsKind::AvlTree));
    }
}
