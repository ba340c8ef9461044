//! Shared by the sweeps that drive the RLE-DICT chain directly.

use gsnp::compress::gpu::rledict_gpu_batch;
use gsnp::compress::rledict;
use gsnp::gpu_sim::Device;

/// Columns built to break a codec arm — the shapes `compress::gpu`'s unit
/// tests pin the arms on: one element, one long run, an empty segment
/// between full ones, no run at all, a run past `u16::MAX`, values past
/// `u16::MAX`.
fn hostile_segments() -> Vec<Vec<u32>> {
    let mut long_run = vec![3u32; 70_000];
    long_run.extend([4, 4, 3]);
    vec![
        vec![9],
        vec![5; 3_000],
        Vec::new(),
        (0..3_000).collect(),
        long_run,
        (0..2_000u32).map(|i| 65_536 + (i / 7) * 100_003).collect(),
    ]
}

/// The chain production runs, on `dev`: every hostile column as a batch
/// of one, then all of them as one batch, each against the host codec.
pub fn sweep_rledict_chain(dev: &Device) {
    let segs = hostile_segments();
    let host: Vec<Vec<u8>> = segs.iter().map(|s| rledict::encode_to_vec(s)).collect();
    for (s, h) in segs.iter().zip(&host) {
        let (bytes, _) = rledict_gpu_batch(dev, &[s]);
        assert_eq!(
            bytes,
            std::slice::from_ref(h),
            "a column of {} alone",
            s.len()
        );
    }
    let refs: Vec<&[u32]> = segs.iter().map(Vec::as_slice).collect();
    assert_eq!(rledict_gpu_batch(dev, &refs).0, host, "one batch");
}
