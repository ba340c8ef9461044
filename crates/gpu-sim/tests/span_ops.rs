//! The span operations against the per-element sequences they stand for.
//!
//! `ld_co_span`, `st_co_span` and `reread_co` must leave the same values,
//! the same `HwCounters` and — on a sanitized, conformance-checking device
//! — the same findings as one `ld_co` / `st_co` per element: out of bounds,
//! uninitialised reads, inter-block races and conformance escapes, at
//! random offsets and lengths. `sort_network` must report the same
//! initcheck findings over a tile with poisoned lanes as the per-pair
//! replay of counted reads and writes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use gpu_sim::{
    AccessContract, BlockInterval, ComputeBackend, Device, Footprint, GlobalBuffer, HwCounters,
    KernelCtx, SanitizerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEN: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Load,
    Store,
    /// A load, then a re-read of the span's first half.
    Reread,
}

/// One block's access: `len` elements from `start`, with `declared` the
/// interval its contract licenses.
#[derive(Clone, Copy, Debug)]
struct Access {
    op: Op,
    start: usize,
    len: usize,
    declared: (usize, usize),
}

/// Everything a run leaves: loaded values, the buffer's bits, the
/// launch's counters (`None` when it panicked) and the sanitizer report.
type Observed = (Vec<u32>, Vec<u64>, Option<HwCounters>, String);

fn sanitized() -> Device {
    Device::m2050().with_sanitizer(SanitizerConfig::all().with_conformance())
}

fn report(dev: &Device) -> String {
    dev.sanitizer_report()
        .map(|r| format!("{:?} {:?} {:?}", r.counts, r.per_kernel, r.diagnostics))
        .unwrap_or_default()
}

fn access(ctx: &mut KernelCtx<'_>, buf: &GlobalBuffer<u32>, a: Access, spans: bool) -> Vec<u32> {
    let mut vals: Vec<u32> = (0..a.len as u32).map(|k| 1000 + k).collect();
    match (a.op, spans) {
        (Op::Store, true) => ctx.st_co_span(buf, a.start, &vals),
        (Op::Store, false) => {
            for (k, &v) in vals.iter().enumerate() {
                ctx.st_co(buf, a.start + k, v);
            }
        }
        (_, true) => {
            ctx.ld_co_span(buf, a.start, &mut vals);
            if a.op == Op::Reread {
                ctx.reread_co(buf, a.start, a.len / 2);
            }
        }
        (_, false) => {
            for (k, v) in vals.iter_mut().enumerate() {
                *v = ctx.ld_co(buf, a.start + k);
            }
            if a.op == Op::Reread {
                for k in 0..a.len / 2 {
                    let _ = ctx.ld_co(buf, a.start + k);
                }
            }
        }
    }
    vals
}

/// Two blocks, in order, each making its access on a buffer of which
/// every third word was written by the host and the rest are poisoned.
fn run(dev: Device, accesses: [Access; 2], spans: bool) -> Observed {
    let buf = dev.alloc_pooled_dirty::<u32>(LEN);
    for i in (0..LEN).step_by(3) {
        buf.set(i, i as u32);
    }
    let contract = || {
        let ivs = accesses.iter().enumerate().map(|(block, a)| BlockInterval {
            block,
            lo: a.declared.0,
            hi: a.declared.1,
        });
        AccessContract::default().read_write(&*buf, Footprint::per_block(ivs.collect()))
    };
    let seen = Mutex::new(Vec::new());
    let ran = catch_unwind(AssertUnwindSafe(|| {
        dev.launch_contracted_seq("span_ops", 2, contract, |ctx| {
            let vals = access(ctx, &buf, accesses[ctx.block_idx()], spans);
            seen.lock().unwrap().extend(vals);
        })
    }));
    let bits = buf.raw_snapshot();
    let seen = seen
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (seen, bits, ran.ok().map(|s| s.counters), report(&dev))
}

fn random_access(rng: &mut StdRng) -> Access {
    let op = [Op::Load, Op::Store, Op::Reread][rng.gen_range(0..3usize)];
    // Mostly in bounds; now and then running past the end.
    let start = rng.gen_range(0..LEN);
    let len = rng.gen_range(0..=(LEN - start + 3).min(12));
    let lo = rng.gen_range(0..LEN);
    let hi = rng.gen_range(lo..=LEN);
    Access {
        op,
        start,
        len,
        declared: (lo, hi),
    }
}

#[test]
fn span_ops_equal_the_per_element_sequence_with_and_without_checkers() {
    let kinds = ["Boundscheck", "Initcheck", "Racecheck", "Conformance"];
    let mut reached = [false; 4];
    let mut rng = StdRng::seed_from_u64(0x5BA7);
    for case in 0..400 {
        let accesses = [random_access(&mut rng), random_access(&mut rng)];
        for checked in [false, true] {
            let dev = || {
                if checked {
                    sanitized()
                } else {
                    Device::m2050()
                }
            };
            let span = run(dev(), accesses, true);
            let each = run(dev(), accesses, false);
            assert_eq!(span, each, "case {case} {accesses:?}, checked {checked}");
            for (hit, kind) in reached.iter_mut().zip(kinds) {
                *hit |= span.3.contains(&format!("kind: {kind}"));
            }
        }
    }
    // The draw reaches every kind of finding.
    assert_eq!(reached, [true; 4], "{kinds:?}");
}

/// Odd-even transposition: a sorting network for `m` lanes.
fn odd_even(m: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..m).flat_map(move |round| (round % 2..m - 1).step_by(2).map(|i| (i, i + 1)))
}

#[test]
fn sort_network_reports_the_per_pair_replays_initcheck_findings() {
    const M: usize = 16;
    let mut rng = StdRng::seed_from_u64(0x50E7);
    for case in 0..50 {
        let written: Vec<(usize, u32)> = (0..M)
            .map(|i| (i, rng.gen_range(0..100u32)))
            .filter(|&(_, v)| v < 60)
            .collect();
        let sort = |replay: bool| {
            let dev = sanitized();
            let out = dev.alloc::<u32>(M);
            let stats = dev.launch_seq("sort", 1, |ctx| {
                let mut tile = ctx.shared_alloc::<u32>(M);
                for &(i, v) in &written {
                    tile.write(ctx, i, v);
                }
                if replay {
                    tile.sort_network(ctx, M, odd_even(M));
                } else {
                    for (lo, hi) in odd_even(M) {
                        ctx.add_inst(1);
                        let (a, b) = (tile.read(ctx, lo), tile.read(ctx, hi));
                        if a > b {
                            tile.write(ctx, lo, b);
                            tile.write(ctx, hi, a);
                        }
                    }
                }
                tile.flush_co(ctx, &out, 0, 0, M);
                ctx.shared_free(tile);
            });
            (out.to_vec(), stats.counters, report(&dev))
        };
        let (lanes, counters, findings) = sort(true);
        assert_eq!(
            (lanes.clone(), counters, findings.clone()),
            sort(false),
            "case {case}"
        );
        let poisoned = M - written.len();
        assert_eq!(
            findings.matches("kind: Initcheck").count(),
            poisoned,
            "case {case}"
        );
        assert!(lanes.windows(2).all(|w| w[0] <= w[1]));
    }
}
