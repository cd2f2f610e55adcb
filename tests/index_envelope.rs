//! Fingerprinted index bundles, the one persistence format:
//! `export_bundle`/`import_bundle` must round-trip every serializable
//! engine kind, alone or together behind one fingerprint, and import must
//! reject — with typed errors, never a panic or a silently wrong engine —
//! blobs from a different graph, truncation at every layer, unknown format
//! versions, unknown and duplicate engine tags, zero-entry bundles, raw
//! (unframed) index blobs, and the single-index "SDIE" envelopes of
//! earlier releases. The corruption sweeps at the end flip every bit of
//! exported bundles, and every payload bit under a recomputed checksum.

mod common;

use std::sync::Arc;

use common::arb_graph;
use proptest::prelude::*;

use structural_diversity::graph::GraphBuilder;
use structural_diversity::search::{
    DecodeError, EngineKind, GraphFingerprint, IndexBundle, QuerySpec, SearchError, SearchService,
    TopREntry, BUNDLE_ENTRY_HEADER_BYTES, BUNDLE_HEADER_BYTES, BUNDLE_VERSION,
};

fn fig1_service() -> SearchService {
    let g = GraphBuilder::new()
        .extend_edges(structural_diversity::search::paper_figure1_edges())
        .build();
    SearchService::new(g)
}

/// The serializable kinds, each persisted as a one-entry bundle.
const INDEX_KINDS: [EngineKind; 3] = [EngineKind::Tsd, EngineKind::Gct, EngineKind::Hybrid];

/// Every engine kind goes through export: the serializable ones round-trip
/// into an equivalent engine, the index-free ones fail with the typed
/// capability error on both directions.
#[test]
fn every_kind_roundtrips_or_reports_the_missing_capability() {
    let donor = fig1_service();
    let spec = QuerySpec::new(4, 3).unwrap();
    for kind in EngineKind::ALL {
        if kind.serializable() {
            let blob = donor.export_bundle([kind]).expect("export");
            let fresh = SearchService::from_arc(donor.graph());
            assert_eq!(fresh.import_bundle(blob).expect("import"), vec![kind]);
            assert_eq!(fresh.built_engines(), vec![kind]);
            let revived = fresh.top_r(&spec.with_engine(kind)).expect("query");
            let original = donor.top_r(&spec.with_engine(kind)).expect("query");
            assert_eq!(revived.scores(), original.scores(), "{kind} roundtrip changed answers");
        } else {
            assert_eq!(
                donor.export_bundle([kind]).unwrap_err(),
                SearchError::SerializationUnsupported { engine: kind.name() },
                "{kind}"
            );
        }
    }
}

#[test]
fn import_rejects_wrong_graph_fingerprint() {
    let donor = fig1_service();
    for kind in INDEX_KINDS {
        let blob = donor.export_bundle([kind]).expect("export");

        // A graph with a different vertex count.
        let smaller =
            SearchService::new(GraphBuilder::new().extend_edges([(0, 1), (1, 2), (0, 2)]).build());
        match smaller.import_bundle(blob.clone()) {
            Err(SearchError::FingerprintMismatch { expected, found }) => {
                assert_eq!(expected, smaller.fingerprint());
                assert_eq!(found, donor.fingerprint());
            }
            other => panic!("{kind}: wrong-n import must fail with FingerprintMismatch: {other:?}"),
        }

        // The sharper case the 0.2 vertex-count check missed: same n, same
        // m, different edges.
        let same_shape = churned_same_shape(&donor);
        assert!(
            matches!(same_shape.import_bundle(blob), Err(SearchError::FingerprintMismatch { .. })),
            "{kind}: same-(n, m) churned graph must be caught by the edge checksum"
        );
    }
}

#[test]
fn import_rejects_truncated_headers_and_bodies() {
    let service = fig1_service();
    let blob = service.export_bundle([EngineKind::Gct]).expect("export");
    // Truncation inside the bundle header, the entry header, and the
    // payload must each produce a typed decode error.
    let entry_header_end = BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES;
    for cut in [0, 1, 7, BUNDLE_HEADER_BYTES - 1, entry_header_end - 1, blob.len() - 1] {
        let truncated = blob.slice(0..cut);
        assert_eq!(
            service.import_bundle(truncated).unwrap_err(),
            SearchError::Decode(DecodeError::Truncated),
            "cut at {cut}"
        );
    }
}

#[test]
fn import_rejects_unknown_format_version() {
    let service = fig1_service();
    let blob = service.export_bundle([EngineKind::Tsd]).expect("export");
    let mut bytes = blob.as_ref().to_vec();
    let future = BUNDLE_VERSION + 41;
    bytes[4..6].copy_from_slice(&future.to_le_bytes());
    assert_eq!(
        service.import_bundle(bytes.into()).unwrap_err(),
        SearchError::Decode(DecodeError::UnsupportedVersion { version: future })
    );
}

#[test]
fn import_rejects_unknown_engine_tag_and_bad_magic() {
    let service = fig1_service();
    let blob = service.export_bundle([EngineKind::Tsd]).expect("export");

    let mut tagged = blob.as_ref().to_vec();
    tagged[BUNDLE_HEADER_BYTES] = 0x7F; // the first entry's engine tag
    assert_eq!(
        service.import_bundle(tagged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::UnknownEngine { tag: 0x7F })
    );

    // A raw index blob (no bundle frame) must be refused up front — its
    // magic is the index format's, not the bundle's.
    let raw = service.engine(EngineKind::Tsd).to_bytes().expect("raw index bytes");
    assert_eq!(service.import_bundle(raw).unwrap_err(), SearchError::Decode(DecodeError::BadMagic));
}

#[test]
fn envelope_for_an_index_free_kind_is_refused_at_decode_time() {
    // Hand-craft a bundle claiming to carry an `online` index: the frame
    // parses, but reviving the engine reports the missing capability.
    let service = fig1_service();
    let forged = IndexBundle::new(
        service.fingerprint(),
        vec![(EngineKind::Online, bytes::Bytes::from_static(b""))],
    );
    assert_eq!(
        service.import_bundle(forged.encode()).unwrap_err(),
        SearchError::SerializationUnsupported { engine: "online" }
    );
}

/// A fig1-shaped graph with the same n and m but one different edge — the
/// adversary a vertex-count (or even `(n, m)`) check cannot see.
fn churned_same_shape(donor: &SearchService) -> SearchService {
    let n = donor.graph().n();
    let mut churned: Vec<(u32, u32)> = donor.graph().edges().to_vec();
    let (u, v) = churned.pop().expect("donor has edges");
    let replacement = (0..n as u32)
        .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
        .find(|&(a, b)| (a, b) != (u, v) && !donor.graph().has_edge(a, b))
        .expect("a non-edge exists");
    churned.push(replacement);
    let service =
        SearchService::new(GraphBuilder::with_min_vertices(n).extend_edges(churned).build());
    assert_eq!(service.graph().n(), n);
    assert_eq!(service.graph().m(), donor.graph().m());
    service
}

// ---------------------------------------------------------------------------
// Multi-index bundles ("SDIB").

/// The headline bundle property: TSD + GCT + Hybrid persist as one blob and
/// a fresh service over the same graph revives all three, answering exactly
/// like the donor.
#[test]
fn bundle_roundtrips_tsd_gct_hybrid_as_one_artifact() {
    let donor = fig1_service();
    let kinds = [EngineKind::Tsd, EngineKind::Gct, EngineKind::Hybrid];
    let blob = donor.export_bundle(kinds).expect("export bundle");

    // The blob is a decodable bundle carrying the donor's fingerprint.
    let bundle = IndexBundle::decode(blob.clone()).expect("decode");
    assert_eq!(bundle.fingerprint, donor.fingerprint());
    assert_eq!(bundle.kinds(), kinds.to_vec());

    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(fresh.import_bundle(blob).expect("import bundle"), kinds.to_vec());
    assert_eq!(fresh.built_engines(), kinds.to_vec());
    let spec = QuerySpec::new(4, 3).unwrap();
    for kind in kinds {
        let revived = fresh.top_r(&spec.with_engine(kind)).expect("revived query");
        let original = donor.top_r(&spec.with_engine(kind)).expect("donor query");
        assert_eq!(revived.metrics.engine, kind.name(), "bundled engines serve directly");
        assert_eq!(revived.scores(), original.scores(), "{kind} bundle roundtrip changed answers");
    }
}

#[test]
fn bundle_import_rejects_truncation_at_every_layer() {
    let service = fig1_service();
    let blob = service
        .export_bundle([EngineKind::Tsd, EngineKind::Gct, EngineKind::Hybrid])
        .expect("export bundle");
    // Every prefix of the blob is rejected — the bundle header, each entry
    // header, each payload, and the loss of trailing entries all count as
    // truncation, and none may panic.
    for cut in 0..blob.len() {
        assert_eq!(
            service.import_bundle(blob.slice(0..cut)).unwrap_err(),
            SearchError::Decode(DecodeError::Truncated),
            "cut at {cut} of {}",
            blob.len()
        );
    }
    // And a surplus byte is also a framing error, not an accepted blob.
    let mut extra = blob.as_ref().to_vec();
    extra.push(0);
    assert_eq!(
        service.import_bundle(extra.into()).unwrap_err(),
        SearchError::Decode(DecodeError::Truncated)
    );
}

#[test]
fn bundle_import_rejects_duplicate_engine_tags() {
    let service = fig1_service();
    let payload = IndexBundle::decode(service.export_bundle([EngineKind::Gct]).unwrap())
        .unwrap()
        .entries
        .remove(0)
        .1;
    // Hand-craft a bundle carrying the same engine twice (the constructor
    // debug-asserts against this, so forge it on the wire).
    let good = IndexBundle::new(
        service.fingerprint(),
        vec![(EngineKind::Tsd, payload.clone()), (EngineKind::Gct, payload.clone())],
    )
    .encode();
    let mut forged = good.as_ref().to_vec();
    let second_tag_offset =
        BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES + payload.as_ref().len();
    forged[second_tag_offset] = EngineKind::Tsd.tag();
    assert_eq!(
        service.import_bundle(forged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::DuplicateEngine { tag: EngineKind::Tsd.tag() })
    );
}

#[test]
fn bundle_import_rejects_zero_entries() {
    let service = fig1_service();
    let good = service.export_bundle([EngineKind::Gct]).unwrap();
    let mut forged = good.as_ref().to_vec();
    forged[6] = 0; // entry count
    assert_eq!(
        service.import_bundle(forged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::EmptyBundle)
    );
}

#[test]
fn bundle_import_rejects_wrong_fingerprint() {
    let donor = fig1_service();
    let blob = donor.export_bundle([EngineKind::Tsd, EngineKind::Gct, EngineKind::Hybrid]).unwrap();

    // Different vertex count.
    let smaller =
        SearchService::new(GraphBuilder::new().extend_edges([(0, 1), (1, 2), (0, 2)]).build());
    match smaller.import_bundle(blob.clone()) {
        Err(SearchError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, smaller.fingerprint());
            assert_eq!(found, donor.fingerprint());
        }
        other => panic!("wrong-n bundle import must fail with FingerprintMismatch: {other:?}"),
    }
    assert!(smaller.built_engines().is_empty(), "a refused bundle must install nothing");

    // Same n, same m, different edges — the edge-checksum case.
    let churned = churned_same_shape(&donor);
    assert!(
        matches!(churned.import_bundle(blob), Err(SearchError::FingerprintMismatch { .. })),
        "same-(n, m) churned graph must be caught by the bundle's edge checksum"
    );
    assert!(churned.built_engines().is_empty());
}

/// Bundle format 2's per-entry checksum: corruption *inside* a payload —
/// which leaves every structural length field intact — is caught at the
/// frame layer as `PayloadChecksum`, naming the corrupted entry, before any
/// index decoder sees the bytes and before anything installs.
#[test]
fn bundle_import_rejects_payload_bitflips_via_the_entry_checksum() {
    let donor = fig1_service();
    let kinds = [EngineKind::Tsd, EngineKind::Gct, EngineKind::Hybrid];
    let good = donor.export_bundle(kinds).expect("export bundle");
    let first_payload_len = IndexBundle::decode(good.clone()).unwrap().entries[0].1.as_ref().len();

    // Flip a byte in the middle of the first (TSD) payload.
    let mut corrupt = good.as_ref().to_vec();
    corrupt[BUNDLE_HEADER_BYTES + BUNDLE_ENTRY_HEADER_BYTES + first_payload_len / 2] ^= 0x40;
    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(
        fresh.import_bundle(corrupt.into()).unwrap_err(),
        SearchError::Decode(DecodeError::PayloadChecksum { tag: EngineKind::Tsd.tag() })
    );
    assert!(fresh.built_engines().is_empty(), "a corrupt bundle must install nothing");

    // A bitflip in a *later* entry's payload names that entry.
    let second_entry = BUNDLE_HEADER_BYTES
        + BUNDLE_ENTRY_HEADER_BYTES
        + first_payload_len
        + BUNDLE_ENTRY_HEADER_BYTES;
    let mut late = good.as_ref().to_vec();
    late[second_entry + 4] ^= 0x01;
    assert_eq!(
        fresh.import_bundle(late.into()).unwrap_err(),
        SearchError::Decode(DecodeError::PayloadChecksum { tag: EngineKind::Gct.tag() })
    );

    // A tampered checksum *field* over an intact payload is equally fatal.
    let mut forged = good.as_ref().to_vec();
    forged[BUNDLE_HEADER_BYTES + 4] ^= 0xFF; // first entry's checksum bytes
    assert_eq!(
        fresh.import_bundle(forged.into()).unwrap_err(),
        SearchError::Decode(DecodeError::PayloadChecksum { tag: EngineKind::Tsd.tag() })
    );
    assert!(fresh.built_engines().is_empty());
}

/// Checksum-less version-1 bundles are no longer read: the version bump is
/// what makes "every accepted entry was checksummed" an invariant.
#[test]
fn bundle_import_rejects_the_checksumless_version_1_format() {
    assert_eq!(BUNDLE_VERSION, 2, "this test pins the checksummed format revision");
    let service = fig1_service();
    let good = service.export_bundle([EngineKind::Gct]).unwrap();
    let mut old = good.as_ref().to_vec();
    old[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert_eq!(
        service.import_bundle(old.into()).unwrap_err(),
        SearchError::Decode(DecodeError::UnsupportedVersion { version: 1 })
    );
}

/// The single-index "SDIE" envelope of earlier releases (a one-entry
/// bundle without the payload checksum) is no longer read: a blob in that
/// format is refused at the magic, whatever it carries.
#[test]
fn envelope_and_bundle_blobs_are_not_interchangeable() {
    let service = fig1_service();
    let payload = service.engine(EngineKind::Gct).to_bytes().expect("raw index bytes");
    let fingerprint = service.fingerprint();
    let mut sdie = Vec::new();
    sdie.extend_from_slice(&0x5344_4945u32.to_le_bytes()); // "SDIE"
    sdie.extend_from_slice(&1u16.to_le_bytes()); // its only format version
    sdie.extend_from_slice(&[EngineKind::Gct.tag(), 0]);
    for field in [fingerprint.n, fingerprint.m, fingerprint.edge_checksum] {
        sdie.extend_from_slice(&field.to_le_bytes());
    }
    sdie.extend_from_slice(&(payload.as_ref().len() as u64).to_le_bytes());
    sdie.extend_from_slice(payload.as_ref());
    assert_eq!(
        service.import_bundle(sdie.into()).unwrap_err(),
        SearchError::Decode(DecodeError::BadMagic)
    );
}

/// A bundle with one corrupt payload installs *nothing* — import is
/// all-or-nothing, so a service is never left half-revived.
#[test]
fn bundle_with_one_corrupt_payload_installs_nothing() {
    let donor = fig1_service();
    let good =
        IndexBundle::decode(donor.export_bundle([EngineKind::Tsd, EngineKind::Gct]).unwrap())
            .unwrap();
    let corrupt = IndexBundle::new(
        good.fingerprint,
        vec![
            good.entries[0].clone(),
            (EngineKind::Gct, bytes::Bytes::from_static(b"not a gct index")),
        ],
    );
    let fresh = SearchService::from_arc(donor.graph());
    assert_eq!(
        fresh.import_bundle(corrupt.encode()).unwrap_err(),
        SearchError::Decode(DecodeError::BadMagic),
        "the corrupt GCT payload must fail its own magic check"
    );
    assert!(fresh.built_engines().is_empty(), "the valid TSD entry must not have been installed");
}

/// `decode_engine` (vertex-count-only attachment) is crate-private, so the
/// one public path that turns serialized bytes into a serving engine,
/// `import_bundle`, checks the graph fingerprint. A stale blob from a
/// same-shape graph (identical n and m, one different edge) must be
/// impossible to attach through any public surface.
#[test]
fn no_fingerprintless_public_decode_path_remains() {
    let donor = fig1_service();
    let churned = churned_same_shape(&donor);
    for kind in INDEX_KINDS {
        let single = donor.export_bundle([kind]).unwrap();
        assert!(
            matches!(churned.import_bundle(single), Err(SearchError::FingerprintMismatch { .. })),
            "{kind}: import_bundle accepted a stale same-shape blob"
        );
    }
    let bundle = donor.export_bundle(INDEX_KINDS).unwrap();
    assert!(
        matches!(churned.import_bundle(bundle), Err(SearchError::FingerprintMismatch { .. })),
        "import_bundle accepted a stale same-shape bundle"
    );
    assert!(churned.built_engines().is_empty(), "no stale engine may have been installed");
    assert_eq!(churned.stats().engines_built, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-entry bundle round-trips preserve answers on arbitrary graphs,
    /// and the recorded fingerprint always matches the source graph's.
    #[test]
    fn envelope_roundtrip_preserves_answers(g in arb_graph(16, 60), k in 2u32..5) {
        let g = Arc::new(g);
        let spec = QuerySpec::new(k, 3.min(g.n())).expect("valid spec");
        let donor = SearchService::from_arc(g.clone());
        prop_assert_eq!(donor.fingerprint(), GraphFingerprint::of(&g));
        for kind in INDEX_KINDS {
            let blob = donor.export_bundle([kind]).expect("export");
            let bundle = IndexBundle::decode(blob.clone()).expect("decode");
            prop_assert_eq!(bundle.kinds(), vec![kind]);
            prop_assert_eq!(bundle.fingerprint, donor.fingerprint());
            let fresh = SearchService::from_arc(g.clone());
            fresh.import_bundle(blob).expect("import");
            prop_assert_eq!(
                fresh.top_r(&spec.with_engine(kind)).expect("query").scores(),
                donor.top_r(&spec.with_engine(kind)).expect("query").scores(),
                "{} roundtrip changed answers", kind
            );
        }
    }

    /// Arbitrary bytes never panic the bundle decoder.
    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let service = fig1_service();
        let _ = service.import_bundle(bytes::Bytes::from(data));
    }
}

// ---------------------------------------------------------------------------
// Corruption sweeps.

/// Every answer an engine of `kind` gives on `service` at k = 2..=8 and
/// r = n: vertices, scores, and social contexts.
fn answers(service: &SearchService, kind: EngineKind) -> Vec<Vec<TopREntry>> {
    let n = service.graph().n();
    (2..=8)
        .map(|k| {
            let spec = QuerySpec::new(k, n).unwrap().with_engine(kind);
            let result = service.top_r(&spec).expect("query on an imported engine");
            assert_eq!(result.metrics.engine, kind.name(), "imported engines serve directly");
            result.entries
        })
        .collect()
}

/// Offsets of the reserved bytes of an encoded bundle: header byte 7 and
/// bytes 1..4 of every entry header.
fn reserved_offsets(blob: &bytes::Bytes) -> Vec<usize> {
    let bundle = IndexBundle::decode(blob.clone()).expect("decode");
    let mut reserved = vec![7];
    let mut entry = BUNDLE_HEADER_BYTES;
    for (_, payload) in &bundle.entries {
        reserved.extend(entry + 1..entry + 4);
        entry += BUNDLE_ENTRY_HEADER_BYTES + payload.as_ref().len();
    }
    reserved
}

/// Flip every bit of an exported bundle — a one-entry bundle of each
/// serializable kind, and all three together. A flip is accepted exactly
/// when it lands in a reserved byte, and then every imported engine
/// answers like the donor; every other flip fails with a typed error.
#[test]
fn bitflip_sweep_gives_a_typed_error_or_the_donors_answers() {
    let donor = fig1_service();
    donor.wait_ready(INDEX_KINDS);
    let target = SearchService::from_arc(donor.graph());
    let exports = INDEX_KINDS.map(|kind| vec![kind]).into_iter().chain([INDEX_KINDS.to_vec()]);
    for kinds in exports {
        let blob = donor.export_bundle(kinds.iter().copied()).expect("export");
        let reserved = reserved_offsets(&blob);
        let mut accepted = 0;
        for bit in 0..blob.len() * 8 {
            let mut flipped = blob.as_ref().to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match target.import_bundle(flipped.into()) {
                Ok(installed) => {
                    assert!(reserved.contains(&(bit / 8)), "{kinds:?}: bit {bit} was accepted");
                    assert_eq!(installed, kinds);
                    for &kind in &kinds {
                        assert_eq!(
                            answers(&target, kind),
                            answers(&donor, kind),
                            "{kind} bit {bit}"
                        );
                    }
                    accepted += 1;
                }
                Err(err) => assert!(
                    !reserved.contains(&(bit / 8)),
                    "{kinds:?}: reserved bit {bit} was refused: {err}"
                ),
            }
        }
        assert_eq!(accepted, reserved.len() * 8, "{kinds:?}");
    }
}

/// A payload can be forged so its entry checksum is valid over flipped
/// bytes. Flip every payload bit of a one-entry TSD and GCT bundle and
/// recompute the checksum: import either fails with a typed error, or
/// installs an engine that answers k = 2..=8 at r = n without panicking.
#[test]
fn forged_payload_sweep_never_panics() {
    let donor = fig1_service();
    for kind in [EngineKind::Tsd, EngineKind::Gct] {
        let bundle = IndexBundle::decode(donor.export_bundle([kind]).unwrap()).unwrap();
        let payload = bundle.entries[0].1.as_ref().to_vec();
        let target = SearchService::from_arc(donor.graph());
        let (mut accepted, mut invalid) = (0, 0);
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let forged = IndexBundle::new(bundle.fingerprint, vec![(kind, flipped.into())]);
            match target.import_bundle(forged.encode()) {
                Ok(_) => {
                    answers(&target, kind);
                    accepted += 1;
                }
                Err(SearchError::Decode(DecodeError::InvalidEntry)) => invalid += 1,
                Err(SearchError::Decode(_) | SearchError::GraphMismatch { .. }) => {}
                Err(other) => panic!("{kind}: bit {bit} failed with an unexpected error: {other}"),
            }
        }
        assert!(accepted > 0 && invalid > 0, "{kind}: accepted {accepted}, invalid {invalid}");
    }
}
