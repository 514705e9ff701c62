//! Integration tests for checkpointing: capture a trained deployment,
//! round-trip it through a file, and verify bit-exact behavior.

use fhdnn::channel::NoiselessChannel;
use fhdnn::checkpoint::FhdnnCheckpoint;
use fhdnn::experiment::{ExperimentSpec, Workload};
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::nn::models::TrunkArch;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fhdnn-test-{}-{name}.bin", std::process::id()));
    p
}

#[test]
fn trained_deployment_roundtrips_through_disk() {
    // Train a small FHDnn system.
    let spec = ExperimentSpec::quick(Workload::Mnist);
    let mut extractor = spec.build_extractor().unwrap();
    let mut system = spec.build_fhdnn_with(&mut extractor).unwrap();
    system.run(&NoiselessChannel::new(), "train").unwrap();
    let trained_acc = system.evaluate().unwrap();
    assert!(trained_acc > 0.4, "trained accuracy {trained_acc}");

    // Capture with the same encoder derivation the system used.
    let encoder = RandomProjectionEncoder::new(
        system.hd_dim(),
        extractor.feature_width(),
        spec.seed ^ 0xe4c0de,
    )
    .unwrap();
    let ckpt = FhdnnCheckpoint::capture(
        spec.arch,
        spec.backbone,
        &extractor,
        &encoder,
        system.global(),
    )
    .unwrap();

    // Disk round trip.
    let path = temp_path("roundtrip");
    std::fs::write(&path, ckpt.to_bytes()).unwrap();
    let loaded = FhdnnCheckpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, ckpt);

    // The restored pipeline classifies a fresh test set identically to
    // the live one.
    let (mut ex2, enc2, hd2) = loaded.restore().unwrap();
    let test = spec.workload.spec().generate(100, 12345).unwrap();
    let live_h = encoder
        .encode_batch(&extractor.extract_chunked(&test.images, 64).unwrap())
        .unwrap();
    let restored_h = enc2
        .encode_batch(&ex2.extract_chunked(&test.images, 64).unwrap())
        .unwrap();
    assert_eq!(
        system.global().predict_batch(&live_h).unwrap(),
        hd2.predict_batch(&restored_h).unwrap()
    );
}

#[test]
fn checkpoint_preserves_backbone_architecture() {
    for arch in [TrunkArch::ResNet, TrunkArch::MobileNet] {
        let mut spec = ExperimentSpec::quick(Workload::Fashion);
        spec.arch = arch;
        let extractor = spec.build_extractor().unwrap();
        let encoder = RandomProjectionEncoder::new(256, extractor.feature_width(), 0).unwrap();
        let hd = fhdnn::hdc::model::HdModel::new(10, 256).unwrap();
        let ckpt =
            FhdnnCheckpoint::capture(arch, spec.backbone, &extractor, &encoder, &hd).unwrap();
        let restored = FhdnnCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(restored.backbone.arch, arch);
        restored.restore().unwrap();
    }
}

#[test]
fn malformed_checkpoints_are_rejected_cleanly() {
    for bad in ["", "FHDN", "not a checkpoint", "{}", "{\"version\": 1}"] {
        let err = FhdnnCheckpoint::from_bytes(bad.as_bytes()).unwrap_err();
        assert!(!err.to_string().contains('\n'), "{bad:?}: {err}");
    }
}
