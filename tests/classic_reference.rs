//! Differential test against an independent classic reference: scores,
//! social contexts, and the sequential and pooled Online and Bound answers
//! must equal what the full classic decomposition of every ego-network
//! gives (`common::ClassicReference`), for k = 2..8 on four dataset-shaped
//! graphs. `all_scores` and every engine run the ego kernel policy (bitmap
//! kernel, peel stopped at the k-truss), so this is the check that the
//! policy changes no answer.

mod common;

use std::sync::Arc;

use common::ClassicReference;
use structural_diversity::datasets::dataset;
use structural_diversity::graph::CsrGraph;
use structural_diversity::search::{
    all_scores, pool_all_scores, social_contexts, BoundEngine, BoundOptions, DiversityEngine,
    OnlineEngine, QuerySpec, ScanPolicy, WorkerPool,
};

/// The ks every graph is checked at.
const KS: std::ops::RangeInclusive<u32> = 2..=8;

fn graph(name: &str, scale: f64) -> Arc<CsrGraph> {
    Arc::new(dataset(name).expect("registered dataset").generate(scale))
}

/// Online and Bound, each sequential and on a 2-thread pool.
fn scan_engines(g: &Arc<CsrGraph>) -> Vec<(&'static str, Box<dyn DiversityEngine>)> {
    let pooled = || ScanPolicy::pooled(Arc::new(WorkerPool::new(2)));
    let bound = |scan| BoundEngine::with_policy(g.clone(), BoundOptions::default(), scan);
    vec![
        ("online", Box::new(OnlineEngine::with_policy(g.clone(), ScanPolicy::sequential()))),
        ("online pooled", Box::new(OnlineEngine::with_policy(g.clone(), pooled()))),
        ("bound", Box::new(bound(ScanPolicy::sequential()))),
        ("bound pooled", Box::new(bound(pooled()))),
    ]
}

/// Checks everything against the reference on one graph.
fn check(name: &str, g: Arc<CsrGraph>) {
    let reference = ClassicReference::new(&g);
    let engines = scan_engines(&g);
    let pool = WorkerPool::new(2);
    for k in KS {
        let scores = reference.scores(k);
        assert_eq!(all_scores(&g, k), scores, "{name}: all_scores at k={k}");
        assert_eq!(pool_all_scores(&pool, &g, k), scores, "{name}: pool_all_scores at k={k}");
        for v in g.vertices() {
            assert_eq!(
                social_contexts(&g, v, k),
                reference.contexts(v, k),
                "{name}: social_contexts of {v} at k={k}"
            );
        }

        let mut ranked = scores.clone();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        for r in [1, 10, g.n()] {
            let spec = QuerySpec::new(k, r).expect("valid query");
            for (engine, e) in &engines {
                let result = e.top_r(&spec).expect("answer");
                let at = format!("{name}: {engine} at k={k} r={r}");
                assert_eq!(result.scores(), ranked[..r], "{at}: score multiset");
                for entry in &result.entries {
                    let v = entry.vertex;
                    assert_eq!(entry.score, scores[v as usize], "{at}: score of {v}");
                    assert_eq!(entry.contexts, reference.contexts(v, k), "{at}: contexts of {v}");
                }
            }
        }
    }
}

#[test]
fn wiki_vote_small_matches_classic_reference() {
    check("wiki-vote-syn@0.02", graph("wiki-vote-syn", 0.02));
}

#[test]
fn wiki_vote_matches_classic_reference() {
    check("wiki-vote-syn@0.1", graph("wiki-vote-syn", 0.1));
}

#[test]
fn email_enron_matches_classic_reference() {
    check("email-enron-syn@0.25", graph("email-enron-syn", 0.25));
}

#[test]
fn epinions_matches_classic_reference() {
    check("epinions-syn@0.01", graph("epinions-syn", 0.01));
}
