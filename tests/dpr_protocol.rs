//! DPR protocol integration: the decoupler/DFXC/driver-swap sequence
//! across crates, including failure injection.

use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::runtime::manager::ReconfigManager;
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::Error as RuntimeError;
use presp::soc::sim::{csr, Soc};
use presp::soc::Error as SocError;

fn flow_deployment() -> (SocDesign, ReconfigManager) {
    let design = SocDesign::grid_3x3(
        "protocol",
        vec![
            vec![AcceleratorKind::Mac, AcceleratorKind::Sort],
            vec![AcceleratorKind::Gemm],
        ],
        false,
    )
    .unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let manager = presp::core::platform::deploy(&design, &out).unwrap();
    (design, manager)
}

#[test]
fn flow_bitstreams_drive_the_full_swap_protocol() {
    let (design, mut manager) = flow_deployment();
    let tiles = design.config.reconfigurable_tiles();
    // MAC → run → SORT → run → MAC again (cache-miss swap back).
    manager
        .request_reconfiguration(tiles[0], AcceleratorKind::Mac)
        .unwrap();
    let r = manager
        .run(
            tiles[0],
            &AccelOp::Mac {
                a: vec![4.0],
                b: vec![2.5],
            },
        )
        .unwrap();
    assert_eq!(r.value, AccelValue::Scalar(10.0));
    manager
        .request_reconfiguration(tiles[0], AcceleratorKind::Sort)
        .unwrap();
    let r = manager
        .run(
            tiles[0],
            &AccelOp::Sort {
                data: vec![9.0, 5.0, 7.0],
            },
        )
        .unwrap();
    assert_eq!(r.value, AccelValue::Vector(vec![5.0, 7.0, 9.0]));
    manager
        .request_reconfiguration(tiles[0], AcceleratorKind::Mac)
        .unwrap();
    assert_eq!(manager.stats().reconfigurations, 3);
    assert_eq!(manager.stats().cache_hits, 0);
}

#[test]
fn corrupted_bitstream_is_rejected_by_the_icap_crc() {
    let design = SocDesign::grid_3x3(
        "corrupt",
        vec![vec![AcceleratorKind::Mac, AcceleratorKind::Sort]],
        false,
    )
    .unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let tile = design.config.reconfigurable_tiles()[0];
    let stream_for = |kind| {
        &out.partial_bitstreams
            .iter()
            .find(|info| info.tile == Some(tile) && info.kind == kind)
            .unwrap()
            .bitstream
    };
    let sort = stream_for(AcceleratorKind::Sort);
    let mac = stream_for(AcceleratorKind::Mac);
    // Flip a payload bit deep inside the stream.
    let mut words = mac.words().to_vec();
    let idx = words.len() / 2;
    words[idx] ^= 0x1000;
    let corrupted = mac.with_words(words);

    let soc = Soc::with_part(&design.config, design.part).unwrap();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tile, AcceleratorKind::Sort, sort.clone())
        .unwrap();
    // The registry verifies the build-time integrity checksum when a
    // stream is registered, so the corrupt stream is never stored.
    let refused = registry.register(tile, AcceleratorKind::Mac, corrupted.clone());
    match refused {
        Err(RuntimeError::CorruptBitstream { .. }) => {}
        other => panic!("expected the registry integrity check to refuse, got {other:?}"),
    }
    assert_eq!(
        (registry.len(), registry.total_bytes()),
        (1, sort.size_bytes())
    );
    let mut manager = ReconfigManager::new(soc, registry);
    manager
        .request_reconfiguration(tile, AcceleratorKind::Sort)
        .unwrap();
    // A later request finds nothing to load: no retries, no
    // reconfiguration attempt, a permanent rejection.
    let err = manager.request_reconfiguration(tile, AcceleratorKind::Mac);
    match err {
        Err(RuntimeError::BitstreamNotRegistered { .. }) => {}
        other => panic!("expected an unregistered pair, got {other:?}"),
    }
    assert_eq!(manager.stats().retries, 0);
    assert_eq!(manager.stats().rejected, 1);
    assert_eq!(manager.stats().reconfigurations, 1);
    assert!(manager.stats().consistent());
    // The swap never began: the tile stays coupled, its driver bound.
    assert_eq!(manager.soc().csr_read(tile, csr::DECOUPLE).unwrap(), 0);
    assert_eq!(manager.active_driver(tile), Some(AcceleratorKind::Sort));
    // Direct ICAP programming (no runtime in between) still reports the
    // configuration-layer error itself: the ICAP's in-stream CRC. The
    // rejected request never started the swap protocol, so decouple the
    // tile manually first.
    let mut soc = manager.into_soc();
    let t = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
    let raw = soc.reconfigure_at(
        tile,
        AcceleratorKind::Mac,
        &std::sync::Arc::new(corrupted),
        t,
    );
    match raw {
        Err(SocError::Fpga(presp::fpga::Error::CrcMismatch { .. })) => {}
        Err(SocError::Fpga(presp::fpga::Error::MalformedBitstream { .. })) => {}
        other => panic!("expected a configuration-layer error, got {other:?}"),
    }
}

#[test]
fn decoupler_gates_traffic_at_the_soc_level() {
    let (design, manager) = flow_deployment();
    let tiles = design.config.reconfigurable_tiles();
    let mut soc = manager.into_soc();
    // Manually decouple and verify the wrapper rejects execution.
    let t = soc.csr_write_at(tiles[0], csr::DECOUPLE, 1, 0).unwrap();
    let err = soc.run_accelerator_at(
        tiles[0],
        &AccelOp::Mac {
            a: vec![1.0],
            b: vec![1.0],
        },
        t,
    );
    assert!(matches!(
        err,
        Err(SocError::DecouplerProtocol { .. }) | Err(SocError::TileEmpty { .. })
    ));
}

#[test]
fn reconfigurations_serialize_on_the_shared_icap() {
    let (design, mut manager) = flow_deployment();
    let tiles = design.config.reconfigurable_tiles();
    // Trigger both tiles' reconfigurations at t = 0; the single ICAP must
    // serialize the loads.
    let r0 = manager
        .request_reconfiguration_at(tiles[0], AcceleratorKind::Mac, 0)
        .unwrap()
        .expect("reconfigures");
    let r1 = manager
        .request_reconfiguration_at(tiles[1], AcceleratorKind::Gemm, 0)
        .unwrap()
        .expect("reconfigures");
    let (first, second) = if r0.end < r1.end {
        (&r0, &r1)
    } else {
        (&r1, &r0)
    };
    assert!(
        second.end - second.icap_cycles >= first.end - first.latency() + first.icap_cycles / 2,
        "ICAP loads should not fully overlap: {first:?} vs {second:?}"
    );
}

#[test]
fn active_driver_follows_the_swap_history() {
    let (design, mut manager) = flow_deployment();
    let tile = design.config.reconfigurable_tiles()[0];
    assert_eq!(manager.active_driver(tile), None);
    manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap();
    assert_eq!(manager.active_driver(tile), Some(AcceleratorKind::Mac));
    manager
        .request_reconfiguration(tile, AcceleratorKind::Sort)
        .unwrap();
    assert_eq!(manager.active_driver(tile), Some(AcceleratorKind::Sort));
    assert!(!manager.driver_services(tile, AcceleratorKind::Mac));
}
