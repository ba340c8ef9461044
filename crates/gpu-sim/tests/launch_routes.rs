//! Every launch entry point on every backend: which engine ran, and what
//! landed on the ledger, the backend tallies, the per-kernel tallies and
//! the contract proof table.
//!
//! One kernel goes through `launch`, `launch_seq`, `launch_contracted` and
//! `launch_contracted_seq` on `Device`, `SimBackend`, `NativeBackend` and
//! `BackendDispatcher` under each choice and each device feature that
//! bends the `Auto` rule. The same four go through with an empty grid
//! first, which must leave no mark anywhere.

use std::sync::Arc;

use gpu_sim::{
    AccessContract, AutoPolicy, BackendChoice, BackendDispatcher, BackendTallies, ComputeBackend,
    Device, Footprint, GlobalBuffer, KernelCtx, NativeBackend, SanitizerConfig, SimBackend,
    TraceRecorder, TrackId,
};

const TILE: usize = 4;
const NAMES: [&str; 4] = ["par", "seq", "cpar", "cseq"];

fn body(ctx: &mut KernelCtx<'_>, buf: &GlobalBuffer<u32>) {
    let base = ctx.block_idx() * TILE;
    for t in 0..TILE {
        ctx.st_co(buf, base + t, (base + t) as u32);
    }
    ctx.add_inst(TILE as u64);
}

/// The four entry points, once each, over `grid` blocks.
fn four_launches<B: ComputeBackend>(b: &B, grid: usize) {
    let n = grid * TILE;
    let buf: GlobalBuffer<u32> = b.device().alloc(n.max(1));
    let contract = || AccessContract::default().write(&buf, Footprint::tiled(TILE, n));
    let par = b.launch(NAMES[0], grid, |ctx| body(ctx, &buf));
    let seq = b.launch_seq(NAMES[1], grid, |ctx| body(ctx, &buf));
    let cpar = b.launch_contracted(NAMES[2], grid, contract, |ctx| body(ctx, &buf));
    let cseq = b.launch_contracted_seq(NAMES[3], grid, contract, |ctx| body(ctx, &buf));
    for stats in [par, seq, cpar, cseq] {
        assert_eq!(stats.grid_dim, grid);
    }
    if grid > 0 {
        assert_eq!(buf.to_vec(), (0..n as u32).collect::<Vec<_>>());
    }
}

/// What one non-empty round of [`four_launches`] must leave behind.
struct Expect {
    /// Launches per name that ran on the native executor, in [`NAMES`] order.
    native: [bool; 4],
    /// Whether an `Auto` dispatcher routed them.
    auto: bool,
}

const ALL_SIM: [bool; 4] = [false; 4];
const ALL_NATIVE: [bool; 4] = [true; 4];

fn check<B: ComputeBackend>(what: &str, b: &B, grid: usize, want: Expect) {
    let dev = b.device();
    four_launches(b, 0);
    assert_eq!(
        dev.ledger().launches,
        0,
        "{what}: empty grids launch nothing"
    );
    assert_eq!(dev.ledger().backend, BackendTallies::default(), "{what}");
    assert!(dev.kernel_launches().is_empty(), "{what}");
    assert!(dev.contract_report().per_kernel.is_empty(), "{what}");

    four_launches(b, grid);
    let led = dev.ledger();
    let natives = want.native.iter().filter(|&&n| n).count() as u64;
    assert_eq!(led.launches, 4, "{what}");
    assert_eq!(led.transfers, 0, "{what}");
    let tallies = BackendTallies {
        sim: 4 - natives,
        native: natives,
        auto_sim: if want.auto { 4 - natives } else { 0 },
        auto_native: if want.auto { natives } else { 0 },
    };
    assert_eq!(led.backend, tallies, "{what}");
    assert_eq!(led.backend.sim + led.backend.native, led.launches, "{what}");

    let overhead = dev.config().launch_overhead;
    let kernels = dev.kernel_launches();
    assert_eq!(kernels.len(), 4, "{what}");
    for (name, &native) in NAMES.iter().zip(&want.native) {
        let t = kernels.iter().find(|t| t.name == *name).unwrap();
        assert_eq!(t.launches, 1, "{what}/{name}");
        assert_eq!(t.native_launches, u64::from(native), "{what}/{name}");
        // Only a parallel simulator launch pays the fixed launch cost.
        let pays = !native && !name.ends_with("seq");
        let due = if pays { overhead } else { 0.0 };
        assert_eq!(t.overhead_seconds, due, "{what}/{name}");
    }
    // The simulator alone counts and prices; the host executor reports
    // wall clock only.
    let sim_stores = (4 - natives) * (grid * TILE) as u64;
    assert_eq!(led.counters.g_store_coalesced, sim_stores, "{what}");
    assert_eq!(led.sim_time > 0.0, natives < 4, "{what}");

    // Contracted launches are proved, uncontracted ones assumed, on
    // whichever engine ran them.
    let proofs = dev.contract_report();
    for (name, contracted) in NAMES.iter().zip([false, false, true, true]) {
        let t = proofs.per_kernel[*name];
        let got = (t.verified, t.refuted, t.assumed);
        let due = if contracted { (1, 0, 0) } else { (0, 0, 1) };
        assert_eq!(got, due, "{what}/{name}");
    }
    if let Some(report) = dev.sanitizer_report() {
        assert!(report.counts.is_clean(), "{what}: {:?}", report.counts);
    }
}

fn auto(dev: &Device) -> BackendDispatcher<'_> {
    BackendDispatcher::new(dev, BackendChoice::Auto).unwrap()
}

#[test]
fn every_entry_point_lands_on_the_engine_its_backend_routes_to() {
    let plain = || Device::m2050().with_contracts();
    let pinned = |sim| Expect {
        native: if sim { ALL_SIM } else { ALL_NATIVE },
        auto: false,
    };

    check("Device", &plain(), 8, pinned(true));
    check("SimBackend", &SimBackend::new(&plain()), 8, pinned(true));
    let dev = plain();
    check(
        "NativeBackend",
        &NativeBackend::new(&dev).unwrap(),
        8,
        pinned(false),
    );
    let dev = plain();
    let disp = BackendDispatcher::new(&dev, BackendChoice::Sim).unwrap();
    check("dispatcher sim", &disp, 8, pinned(true));
    let dev = plain();
    let disp = BackendDispatcher::new(&dev, BackendChoice::Native).unwrap();
    check("dispatcher native", &disp, 8, pinned(false));

    // Auto: the grid against the threshold…
    let routed = |native| Expect { native, auto: true };
    check("auto at threshold", &auto(&plain()), 8, routed(ALL_NATIVE));
    check("auto below threshold", &auto(&plain()), 7, routed(ALL_SIM));
    let dev = plain();
    let policy = AutoPolicy {
        native_min_blocks: 2,
    };
    let disp = BackendDispatcher::with_policy(&dev, BackendChoice::Auto, policy).unwrap();
    check("auto, lowered threshold", &disp, 2, routed(ALL_NATIVE));

    // …unless the simulator owns an observable the run asked for. A trace
    // keeps everything, and shows each decision on the kernel track.
    let rec = Arc::new(TraceRecorder::new(256));
    let dev = plain().with_trace(&rec, 0);
    check("auto traced", &auto(&dev), 8, routed(ALL_SIM));
    let snap = rec.snapshot();
    let kernels = snap.tracks.iter().position(|t| t.thread == "kernels");
    let kernels = TrackId(kernels.unwrap() as u32);
    assert_eq!(snap.count_events(kernels, "dispatch_sim"), 4);
    assert_eq!(snap.count_events(kernels, "dispatch_native"), 0);

    // A sanitizer keeps what carries no proof; a contract is the ticket.
    let dev = plain().with_sanitizer(SanitizerConfig::all());
    let split = [false, false, true, true];
    check("auto sanitized", &auto(&dev), 8, routed(split));

    // Conformance compares observed accesses with declared ones.
    let dev = plain().with_sanitizer(SanitizerConfig::all().with_conformance());
    check("auto conformance", &auto(&dev), 8, routed(ALL_SIM));
}
