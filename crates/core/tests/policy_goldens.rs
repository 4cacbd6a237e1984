//! The paper's seven writeback policies (§3.5) applied per tier (§3.6)
//! are pinned over the whole grid, for every architecture:
//!
//! - RAM 8G + flash 16G under all 7 × 7 (RAM, flash) policy pairs;
//! - no RAM, RAM policy `p1`, under each of the 7 flash policies;
//! - no flash, flash policy `p1`, under each of the 7 RAM policies.
//!
//! Each row pins an FNV-1a digest of the report's JSON encoding minus its
//! `events` key (behaviour) and the executor poll count (a cost). Each
//! architecture's rows fold into one behaviour digest and one poll digest;
//! when either moves, the failure names every diverging row.

use std::sync::OnceLock;

use fcache::{
    report_to_json, Architecture, Scenario, SimConfig, SimReport, Workbench, Workload, WorkloadSpec,
};
use fcache_types::{ByteSize, Json, Trace};

/// Cache sizes of one grid row (paper scale).
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// RAM 8G + flash 16G.
    Both,
    /// No RAM, flash 16G.
    NoRam,
    /// RAM 8G, no flash.
    NoFlash,
}

/// One pinned row: tier shape, RAM and flash policy labels, behaviour
/// digest, executor polls (`SimReport::events`).
type Pin = (Shape, &'static str, &'static str, u64, u64);

/// FNV-1a (64-bit) over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the report's JSON encoding without its `events` key.
fn digest(r: &SimReport) -> u64 {
    let mut json = report_to_json(r);
    if let Json::Obj(fields) = &mut json {
        fields.retain(|(key, _)| key != "events");
    }
    fnv(json.to_string().bytes())
}

/// Folds one value per row into one digest, in row order.
fn fold(values: impl Iterator<Item = u64>) -> u64 {
    fnv(values.flat_map(u64::to_le_bytes))
}

/// The shared workload: 1,204 ops at half writes over a 32G working set.
fn bench() -> &'static (Workbench, Trace) {
    static BENCH: OnceLock<(Workbench, Trace)> = OnceLock::new();
    BENCH.get_or_init(|| {
        let wb = Workbench::new(4096, 42);
        let trace = wb.make_trace(&WorkloadSpec {
            working_set: ByteSize::gib(32),
            write_fraction: 0.5,
            seed: 42,
            ..WorkloadSpec::default()
        });
        assert_eq!(trace.ops.len(), 1204, "the pinned workload");
        (wb, trace)
    })
}

fn config(arch: Architecture, pin: &Pin) -> SimConfig {
    let (shape, ram_policy, flash_policy, ..) = *pin;
    let (ram, flash) = match shape {
        Shape::Both => (8, 16),
        Shape::NoRam => (0, 16),
        Shape::NoFlash => (8, 0),
    };
    SimConfig {
        arch,
        ram_size: ByteSize::gib(ram),
        flash_size: ByteSize::gib(flash),
        ram_policy: ram_policy.parse().expect("policy label"),
        flash_policy: flash_policy.parse().expect("policy label"),
        ..SimConfig::baseline()
    }
}

/// Runs every row of `pins` under `arch` and checks both folds.
fn check(arch: Architecture, pins: &[Pin]) {
    assert_eq!(pins.len(), 63, "7 x 7 + 7 + 7 rows");
    let (wb, trace) = bench();
    let got: Vec<(u64, u64)> = pins
        .iter()
        .map(|pin| {
            let cfg = config(arch, pin).scaled_down(wb.scale());
            let r = Scenario::new(cfg, Workload::trace(trace))
                .run()
                .expect("policy grid run");
            (digest(&r), r.events)
        })
        .collect();
    let behaviour = (
        fold(got.iter().map(|g| g.0)),
        fold(pins.iter().map(|p| p.3)),
    );
    let polls = (
        fold(got.iter().map(|g| g.1)),
        fold(pins.iter().map(|p| p.4)),
    );
    if behaviour.0 == behaviour.1 && polls.0 == polls.1 {
        return;
    }
    let mut table = String::new();
    for (pin, (d, e)) in pins.iter().zip(&got) {
        let (shape, rp, fp, want_d, want_e) = *pin;
        let mark = match (*d == want_d, *e == want_e) {
            (true, true) => "",
            (false, true) => "  <- behaviour",
            (true, false) => "  <- polls",
            (false, false) => "  <- behaviour, polls",
        };
        table.push_str(&format!(
            "    (Shape::{shape:?}, \"{rp}\", \"{fp}\", 0x{d:016x}, {e}),{mark}\n"
        ));
        if *e != want_e {
            table.push_str(&format!("        polls were {want_e}\n"));
        }
    }
    panic!(
        "{arch:?} policy grid moved: behaviour digest {:016x} (pinned {:016x}), \
         poll digest {:016x} (pinned {:016x})\n{table}",
        behaviour.0, behaviour.1, polls.0, polls.1
    );
}

#[test]
fn naive_policy_grid_is_pinned() {
    check(Architecture::Naive, NAIVE);
}

#[test]
fn lookaside_policy_grid_is_pinned() {
    check(Architecture::Lookaside, LOOKASIDE);
}

#[test]
fn unified_policy_grid_is_pinned() {
    check(Architecture::Unified, UNIFIED);
}

#[rustfmt::skip]
const NAIVE: &[Pin] = &[
    (Shape::Both, "s", "s", 0x1f106394300e0b6c, 9316),
    (Shape::Both, "s", "a", 0x0ebdddef980f1826, 21663),
    (Shape::Both, "s", "p1", 0x88c3d76fcaeecca4, 21528),
    (Shape::Both, "s", "p5", 0x5b310a0a40366c06, 20669),
    (Shape::Both, "s", "p15", 0x563dd870d5935151, 19822),
    (Shape::Both, "s", "p30", 0x69730d2023e77e9a, 19402),
    (Shape::Both, "s", "n", 0x7be7c43d637a8813, 8020),
    (Shape::Both, "a", "s", 0x2f0c51a73f507805, 18019),
    (Shape::Both, "a", "a", 0xa42cd0b838eaa822, 26267),
    (Shape::Both, "a", "p1", 0x4837164d172483b9, 30748),
    (Shape::Both, "a", "p5", 0x2536389ebe05aa84, 30478),
    (Shape::Both, "a", "p15", 0xd2cd1a813be33941, 29835),
    (Shape::Both, "a", "p30", 0xf4f9e336a0ad282c, 29180),
    (Shape::Both, "a", "n", 0x91c2111d2be3c482, 18046),
    (Shape::Both, "p1", "s", 0xa7cf22a1290f5659, 18399),
    (Shape::Both, "p1", "a", 0x741e0168d8ef4fd6, 23161),
    (Shape::Both, "p1", "p1", 0xfe6c20bd9029156a, 27084),
    (Shape::Both, "p1", "p5", 0xe9d94560c27d2587, 26531),
    (Shape::Both, "p1", "p15", 0xef709ec08bb58912, 26144),
    (Shape::Both, "p1", "p30", 0x299fc068de240e18, 25588),
    (Shape::Both, "p1", "n", 0xd06bad9c63a3cdb7, 15583),
    (Shape::Both, "p5", "s", 0xf2b0bb70b45197b2, 17772),
    (Shape::Both, "p5", "a", 0xc69267a2b9a9512c, 22823),
    (Shape::Both, "p5", "p1", 0xf13f32c983dd01fc, 26907),
    (Shape::Both, "p5", "p5", 0xac9579d0f48a241e, 26411),
    (Shape::Both, "p5", "p15", 0x5aac91aa8f5106e2, 25816),
    (Shape::Both, "p5", "p30", 0xd78ee9087c0e339b, 25390),
    (Shape::Both, "p5", "n", 0x150710574b6f4513, 15230),
    (Shape::Both, "p15", "s", 0x4fe08d12550bbba8, 17268),
    (Shape::Both, "p15", "a", 0xea1166fdc6f4cfcf, 22096),
    (Shape::Both, "p15", "p1", 0xb50c9e07bab7f6c2, 26595),
    (Shape::Both, "p15", "p5", 0xe51554b62e7e82bd, 26246),
    (Shape::Both, "p15", "p15", 0xc63afc77cceababb, 25606),
    (Shape::Both, "p15", "p30", 0xc0b4fffd64eb121f, 25170),
    (Shape::Both, "p15", "n", 0x03fdc79440b9e25c, 14854),
    (Shape::Both, "p30", "s", 0x43ea25ed47cbe939, 17041),
    (Shape::Both, "p30", "a", 0x943b1e3ae36b578e, 21866),
    (Shape::Both, "p30", "p1", 0xb79f0852b6913510, 25657),
    (Shape::Both, "p30", "p5", 0x619caf7f605cf700, 25707),
    (Shape::Both, "p30", "p15", 0x7681630348165990, 25492),
    (Shape::Both, "p30", "p30", 0x823d2b3969118675, 25101),
    (Shape::Both, "p30", "n", 0x7a859e0428a11209, 14663),
    (Shape::Both, "n", "s", 0x02244b80546d9b11, 7194),
    (Shape::Both, "n", "a", 0x5ba6fb88ea78c01b, 17476),
    (Shape::Both, "n", "p1", 0x8d940842bc6bada8, 17046),
    (Shape::Both, "n", "p5", 0x57a931d15a827318, 16945),
    (Shape::Both, "n", "p15", 0xb6f601813b21156a, 16370),
    (Shape::Both, "n", "p30", 0x49701804fbca5e9e, 16454),
    (Shape::Both, "n", "n", 0xd858ce688e6007f5, 6842),
    (Shape::NoRam, "p1", "s", 0x186708ad6d1c8e1c, 7955),
    (Shape::NoRam, "p1", "a", 0x072424bfb2b666a9, 18395),
    (Shape::NoRam, "p1", "p1", 0xf77f32b99fd6c4e2, 21343),
    (Shape::NoRam, "p1", "p5", 0x20c517da77daffd3, 20404),
    (Shape::NoRam, "p1", "p15", 0x5bc8c6cf6b0e137c, 20030),
    (Shape::NoRam, "p1", "p30", 0x9a50a7cfd7986fcb, 19113),
    (Shape::NoRam, "p1", "n", 0xdc3bdf03fee24dd6, 7819),
    (Shape::NoFlash, "s", "p1", 0x8a03dd42cc9c7bc1, 5334),
    (Shape::NoFlash, "a", "p1", 0xe0fdfbed2eeb8ed2, 13141),
    (Shape::NoFlash, "p1", "p1", 0x2afda23ea5ee3096, 13394),
    (Shape::NoFlash, "p5", "p1", 0x372976f8f9072233, 13160),
    (Shape::NoFlash, "p15", "p1", 0x5053479a11bfb9bf, 12773),
    (Shape::NoFlash, "p30", "p1", 0x91f2504409a70010, 12503),
    (Shape::NoFlash, "n", "p1", 0x59446b61f83a2fec, 4129),
];

#[rustfmt::skip]
const LOOKASIDE: &[Pin] = &[
    (Shape::Both, "s", "s", 0xdd3e6562ca65e984, 8232),
    (Shape::Both, "s", "a", 0xdd3e6562ca65e984, 8232),
    (Shape::Both, "s", "p1", 0xdd3e6562ca65e984, 8232),
    (Shape::Both, "s", "p5", 0xdd3e6562ca65e984, 8232),
    (Shape::Both, "s", "p15", 0xdd3e6562ca65e984, 8232),
    (Shape::Both, "s", "p30", 0xdd3e6562ca65e984, 8232),
    (Shape::Both, "s", "n", 0xdd3e6562ca65e984, 8232),
    (Shape::Both, "a", "s", 0x6ea1482c414fdc04, 18069),
    (Shape::Both, "a", "a", 0x6ea1482c414fdc04, 18069),
    (Shape::Both, "a", "p1", 0x6ea1482c414fdc04, 18069),
    (Shape::Both, "a", "p5", 0x6ea1482c414fdc04, 18069),
    (Shape::Both, "a", "p15", 0x6ea1482c414fdc04, 18069),
    (Shape::Both, "a", "p30", 0x6ea1482c414fdc04, 18069),
    (Shape::Both, "a", "n", 0x6ea1482c414fdc04, 18069),
    (Shape::Both, "p1", "s", 0xdecfd76119ea19bb, 18424),
    (Shape::Both, "p1", "a", 0xdecfd76119ea19bb, 18424),
    (Shape::Both, "p1", "p1", 0xdecfd76119ea19bb, 18424),
    (Shape::Both, "p1", "p5", 0xdecfd76119ea19bb, 18424),
    (Shape::Both, "p1", "p15", 0xdecfd76119ea19bb, 18424),
    (Shape::Both, "p1", "p30", 0xdecfd76119ea19bb, 18424),
    (Shape::Both, "p1", "n", 0xdecfd76119ea19bb, 18424),
    (Shape::Both, "p5", "s", 0x5c62015bd9b64aec, 17905),
    (Shape::Both, "p5", "a", 0x5c62015bd9b64aec, 17905),
    (Shape::Both, "p5", "p1", 0x5c62015bd9b64aec, 17905),
    (Shape::Both, "p5", "p5", 0x5c62015bd9b64aec, 17905),
    (Shape::Both, "p5", "p15", 0x5c62015bd9b64aec, 17905),
    (Shape::Both, "p5", "p30", 0x5c62015bd9b64aec, 17905),
    (Shape::Both, "p5", "n", 0x5c62015bd9b64aec, 17905),
    (Shape::Both, "p15", "s", 0x7dc04b975579066f, 17532),
    (Shape::Both, "p15", "a", 0x7dc04b975579066f, 17532),
    (Shape::Both, "p15", "p1", 0x7dc04b975579066f, 17532),
    (Shape::Both, "p15", "p5", 0x7dc04b975579066f, 17532),
    (Shape::Both, "p15", "p15", 0x7dc04b975579066f, 17532),
    (Shape::Both, "p15", "p30", 0x7dc04b975579066f, 17532),
    (Shape::Both, "p15", "n", 0x7dc04b975579066f, 17532),
    (Shape::Both, "p30", "s", 0x612cee87b3b65559, 17110),
    (Shape::Both, "p30", "a", 0x612cee87b3b65559, 17110),
    (Shape::Both, "p30", "p1", 0x612cee87b3b65559, 17110),
    (Shape::Both, "p30", "p5", 0x612cee87b3b65559, 17110),
    (Shape::Both, "p30", "p15", 0x612cee87b3b65559, 17110),
    (Shape::Both, "p30", "p30", 0x612cee87b3b65559, 17110),
    (Shape::Both, "p30", "n", 0x612cee87b3b65559, 17110),
    (Shape::Both, "n", "s", 0xe04b760bd9ca067a, 6560),
    (Shape::Both, "n", "a", 0xe04b760bd9ca067a, 6560),
    (Shape::Both, "n", "p1", 0xe04b760bd9ca067a, 6560),
    (Shape::Both, "n", "p5", 0xe04b760bd9ca067a, 6560),
    (Shape::Both, "n", "p15", 0xe04b760bd9ca067a, 6560),
    (Shape::Both, "n", "p30", 0xe04b760bd9ca067a, 6560),
    (Shape::Both, "n", "n", 0xe04b760bd9ca067a, 6560),
    (Shape::NoRam, "p1", "s", 0x81480d8dce7ca558, 8023),
    (Shape::NoRam, "p1", "a", 0x81480d8dce7ca558, 8023),
    (Shape::NoRam, "p1", "p1", 0x81480d8dce7ca558, 8023),
    (Shape::NoRam, "p1", "p5", 0x81480d8dce7ca558, 8023),
    (Shape::NoRam, "p1", "p15", 0x81480d8dce7ca558, 8023),
    (Shape::NoRam, "p1", "p30", 0x81480d8dce7ca558, 8023),
    (Shape::NoRam, "p1", "n", 0x81480d8dce7ca558, 8023),
    (Shape::NoFlash, "s", "p1", 0x8a03dd42cc9c7bc1, 5334),
    (Shape::NoFlash, "a", "p1", 0xe0fdfbed2eeb8ed2, 13141),
    (Shape::NoFlash, "p1", "p1", 0x2afda23ea5ee3096, 13394),
    (Shape::NoFlash, "p5", "p1", 0x372976f8f9072233, 13160),
    (Shape::NoFlash, "p15", "p1", 0x5053479a11bfb9bf, 12773),
    (Shape::NoFlash, "p30", "p1", 0x91f2504409a70010, 12503),
    (Shape::NoFlash, "n", "p1", 0x59446b61f83a2fec, 4129),
];

#[rustfmt::skip]
const UNIFIED: &[Pin] = &[
    (Shape::Both, "s", "s", 0xe6f045d6c363ad16, 7529),
    (Shape::Both, "s", "a", 0x66dd02845a65c2af, 14851),
    (Shape::Both, "s", "p1", 0x8ff4ffa65ea876da, 16089),
    (Shape::Both, "s", "p5", 0xe828461da4cb8269, 15400),
    (Shape::Both, "s", "p15", 0xe7dc9e39016393c5, 15139),
    (Shape::Both, "s", "p30", 0x6c94b310a2259d83, 14817),
    (Shape::Both, "s", "n", 0xe227953e1fea7bc5, 5213),
    (Shape::Both, "a", "s", 0xbcaea39c61d18c67, 10906),
    (Shape::Both, "a", "a", 0x71ac37d0b610c88c, 16315),
    (Shape::Both, "a", "p1", 0x771f686fb6228383, 17871),
    (Shape::Both, "a", "p5", 0x43ee04e7d10507ad, 17586),
    (Shape::Both, "a", "p15", 0x1ab635b3bf88f33e, 17083),
    (Shape::Both, "a", "p30", 0x26ea22f25f845751, 16665),
    (Shape::Both, "a", "n", 0x117139b03ad320fe, 8009),
    (Shape::Both, "p1", "s", 0x2f2a9f8c81f87329, 11235),
    (Shape::Both, "p1", "a", 0xf3120d38b2f0a354, 17641),
    (Shape::Both, "p1", "p1", 0xa9d917cc5c33733f, 18537),
    (Shape::Both, "p1", "p5", 0x2bb5f5dc7f812f50, 18396),
    (Shape::Both, "p1", "p15", 0x94825aba5beed58f, 18128),
    (Shape::Both, "p1", "p30", 0xc6d71e647571cf79, 17852),
    (Shape::Both, "p1", "n", 0x584129da1356433f, 8944),
    (Shape::Both, "p5", "s", 0xc3c9702b40c1409c, 10444),
    (Shape::Both, "p5", "a", 0x0911a70616f42970, 17476),
    (Shape::Both, "p5", "p1", 0x63cbf0a89dcb2a9d, 18533),
    (Shape::Both, "p5", "p5", 0x2b3aae576df208c8, 17954),
    (Shape::Both, "p5", "p15", 0xc1ba0d6f2b83fbed, 17562),
    (Shape::Both, "p5", "p30", 0xd7583167eb94124a, 17014),
    (Shape::Both, "p5", "n", 0x2a361954016341b9, 8156),
    (Shape::Both, "p15", "s", 0x69aa15a6ddea1f58, 10087),
    (Shape::Both, "p15", "a", 0x54a87478cae916ea, 17381),
    (Shape::Both, "p15", "p1", 0x5aa8ca41f5e3b6ac, 18361),
    (Shape::Both, "p15", "p5", 0xe1273eafbf3ada1c, 17749),
    (Shape::Both, "p15", "p15", 0xcc3cc2aaf0df3e96, 17156),
    (Shape::Both, "p15", "p30", 0x0059f6f10e6eec43, 16795),
    (Shape::Both, "p15", "n", 0x715ec846f8c8aea0, 7820),
    (Shape::Both, "p30", "s", 0x99904dbfe8c4748d, 10069),
    (Shape::Both, "p30", "a", 0xe3f06cbc9233a44f, 17240),
    (Shape::Both, "p30", "p1", 0xca704eb2c0a0ace9, 18181),
    (Shape::Both, "p30", "p5", 0x98ed093a63915f9f, 17725),
    (Shape::Both, "p30", "p15", 0x2c0e5f2ffdcd444e, 17039),
    (Shape::Both, "p30", "p30", 0xd9c6b729b39b834b, 16668),
    (Shape::Both, "p30", "n", 0x57c2bf96288efc09, 7762),
    (Shape::Both, "n", "s", 0xf2e67005f23e7348, 6106),
    (Shape::Both, "n", "a", 0x7160c19b321d0609, 13722),
    (Shape::Both, "n", "p1", 0xf85d889a0ba01edd, 14655),
    (Shape::Both, "n", "p5", 0x11c3e882bd3524e2, 14302),
    (Shape::Both, "n", "p15", 0x42947807f3ca0d36, 13627),
    (Shape::Both, "n", "p30", 0x8605a23d4e249fff, 13338),
    (Shape::Both, "n", "n", 0x23bc50d2820152d9, 4016),
    (Shape::NoRam, "p1", "s", 0x3f562c682685a21d, 7975),
    (Shape::NoRam, "p1", "a", 0x93c469e64651f669, 18395),
    (Shape::NoRam, "p1", "p1", 0xcb0c05e2dce942fc, 21040),
    (Shape::NoRam, "p1", "p5", 0xb022328342ec03c4, 20375),
    (Shape::NoRam, "p1", "p15", 0xc4a0df9456d5d7c4, 20183),
    (Shape::NoRam, "p1", "p30", 0x36ef77cead3b6996, 19115),
    (Shape::NoRam, "p1", "n", 0x34282413be8a7a24, 7789),
    (Shape::NoFlash, "s", "p1", 0xe3063ded5113cf2d, 5334),
    (Shape::NoFlash, "a", "p1", 0xf86e4e6fddff7fa2, 13141),
    (Shape::NoFlash, "p1", "p1", 0xf15817e9ed226317, 13396),
    (Shape::NoFlash, "p5", "p1", 0x293aeb0eedb4c5f4, 13060),
    (Shape::NoFlash, "p15", "p1", 0x2eae654aaecd56c7, 12773),
    (Shape::NoFlash, "p30", "p1", 0x6c0c6cad64073884, 12503),
    (Shape::NoFlash, "n", "p1", 0xb1e1505866cb56ec, 4129),
];
