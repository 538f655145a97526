//! Bit-level pins of the tree model's arithmetic.
//!
//! Every case evaluates `AnalyticalModel::evaluate` on one organization,
//! destination pattern and rate (tagged `default`, the paper's one reading),
//! and renders the outcome as one line: the exact bits of `total_latency`
//! plus an FNV-1a fold of every cluster's intra/inter totals, concentrator
//! wait and mean latency — or, past the knee, the exact `ModelError`
//! (component, utilisation bits, cluster).
//! The expected lines were captured from an evaluation that solved every
//! cluster and every ordered cluster pair separately, so this is the oracle
//! that keeps the class tables (and anything else that rearranges the
//! evaluation) bit-identical to that arithmetic.
//!
//! The torus model is pinned the same way: every case evaluates
//! `TorusModel::evaluate` on one k-ary n-cube, routing discipline, destination
//! pattern and rate, and renders the exact bits of the report's total,
//! network, source-wait, tail, intra, inter and escape-fraction fields, or the
//! exact `ModelError`. Those lines were captured from an evaluation that ran
//! the stage recursion separately for every journey length; the lines of the
//! (3,2), (5,2), (2,3) and (8,1) fabrics from one that kept a dense rate table
//! per link channel.

use mcnet_model::{AnalyticalModel, ModelError, ModelOptions, TorusModel};
use mcnet_system::{organizations, MultiClusterSystem, TorusSystem, TrafficConfig, TrafficPattern};

/// Rates from deep in the steady region to well past the knee of every
/// organization (the 32-node `small_test` organization saturates last, between
/// 3e-3 and 1e-2).
const RATES: [f64; 14] =
    [2.5e-6, 1e-5, 4e-5, 1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4, 8e-4, 1.2e-3, 3e-3, 1e-2, 3e-2];

fn fnv_fold(hash: u64, value: f64) -> u64 {
    value
        .to_bits()
        .to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn render(rate: f64, model: &AnalyticalModel<'_>) -> String {
    match model.evaluate() {
        Ok(report) => {
            let clusters = report.clusters.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
                [c.intra.total, c.inter.total, c.inter.concentrator_wait, c.mean_latency]
                    .into_iter()
                    .fold(h, fnv_fold)
            });
            format!("{rate:e} ok {:016x} {clusters:016x}", report.total_latency.to_bits())
        }
        Err(e) => format!("{rate:e} {}", render_error(e)),
    }
}

fn organizations() -> [(&'static str, MultiClusterSystem); 4] {
    [
        ("A", organizations::table1_org_a()),
        ("B", organizations::table1_org_b()),
        ("medium", organizations::medium_org()),
        ("small_test", organizations::small_test_org()),
    ]
}

fn patterns(system: &MultiClusterSystem) -> [(&'static str, TrafficPattern); 2] {
    // The hot spot sits in the last (largest) cluster.
    let hotspot = system.total_nodes() - 1;
    [
        ("uniform", TrafficPattern::Uniform),
        ("hotspot", TrafficPattern::Hotspot { hotspot, fraction: 0.2 }),
    ]
}

fn traffic(pattern: TrafficPattern, rate: f64) -> TrafficConfig {
    TrafficConfig::uniform(32, 256.0, rate).unwrap().with_pattern(pattern).unwrap()
}

fn actual() -> String {
    let mut lines = Vec::new();
    for (org, system) in organizations() {
        for (pattern_name, pattern) in patterns(&system) {
            for rate in RATES {
                let model = AnalyticalModel::new(&system, &traffic(pattern, rate)).unwrap();
                lines.push(format!("{org} {pattern_name} default {}", render(rate, &model)));
            }
        }
    }
    lines.join("\n")
}

const EXPECTED: &str = "
A uniform default 2.5e-6 ok 4033b76be6ab979a 812415ff31cf7235
A uniform default 1e-5 ok 4033ecd76d84a9b6 fc97dbc25b2b0335
A uniform default 4e-5 ok 4034cc4958dc6e3c 87d67df02f5b60f5
A uniform default 1e-4 ok 4036c1d1735d6f67 ebb33000fe8b267d
A uniform default 2e-4 ok 403aea279c2de66f e93a7402371dfd85
A uniform default 3e-4 ok 4040891dd8659023 932b4298d2ddc8d5
A uniform default 4e-4 ok 4046262122036ef3 cd8bd4780b14e595
A uniform default 5e-4 ok 405520f9aba5b552 a9a98528682b8475
A uniform default 6e-4 saturated Concentrator 3ff1336ff83f5dbf Some(0)
A uniform default 8e-4 saturated Channel 3ff7c12a2125ed1f Some(0)
A uniform default 1.2e-3 saturated Channel 4004d8c9782f3b1e Some(0)
A uniform default 3e-3 saturated Channel 3ff396fbfaf79368 Some(0)
A uniform default 1e-2 saturated Channel 3ff1f9a7a5519da6 Some(0)
A uniform default 3e-2 saturated Channel 401151d771eea8cc Some(0)
A hotspot default 2.5e-6 ok 403410663451e845 b89a4c8dd70d7b91
A hotspot default 1e-5 ok 40346dd40c00b710 c738412e5dd1734f
A hotspot default 4e-5 ok 403606bb423407a8 a387c7cf2fa99c46
A hotspot default 1e-4 ok 403a2e885f842702 89611c60cb28efe1
A hotspot default 2e-4 ok 40465da780b675e3 2f364d26c3935d88
A hotspot default 3e-4 saturated Channel 3ff5929d569308ce Some(0)
A hotspot default 4e-4 saturated Channel 4000cd86b4f41602 Some(0)
A hotspot default 5e-4 saturated Channel 400627c42f6002b5 Some(0)
A hotspot default 6e-4 saturated Channel 400b93eebcaa6c3d Some(0)
A hotspot default 8e-4 saturated Channel 3ff004e574f2c3c1 Some(0)
A hotspot default 1.2e-3 saturated Channel 3fff3362d40a0d55 Some(0)
A hotspot default 3e-3 saturated Concentrator 3ff13ef3d731c921 Some(0)
A hotspot default 1e-2 saturated Concentrator 3ff3234e915454c3 Some(0)
A hotspot default 3e-2 saturated Channel 400effb02ce1338a Some(0)
B uniform default 2.5e-6 ok 4035de93c4307d5c 232c8de70a03c97d
B uniform default 1e-5 ok 4036053cb4ff0c18 a2dd9cf4cafe4737
B uniform default 4e-5 ok 4036a3fff03ddcf0 7a4097caeb8ea449
B uniform default 1e-4 ok 4037f6d5449a56b8 b9a952e9f4052637
B uniform default 2e-4 ok 403a750084cffa65 cd4f9f314e97e8b6
B uniform default 3e-4 ok 403d65b21e9a3072 6edb163ab81c7b17
B uniform default 4e-4 ok 404076dcf34b3da3 d1adbd7a2fd9d6ec
B uniform default 5e-4 ok 4042a28b5860c3d7 f882d49b05bed7d0
B uniform default 6e-4 ok 404563639f371b53 1ca3a9c981e93c48
B uniform default 8e-4 ok 404e41423f08cb88 183308bfa1d333ed
B uniform default 1.2e-3 saturated Channel 3ff469d249ea59d4 Some(0)
B uniform default 3e-3 saturated Channel 4002453627514bfc Some(0)
B uniform default 1e-2 saturated Channel 40193f83a90314ee Some(0)
B uniform default 3e-2 saturated Channel 403a149b6069138c Some(0)
B hotspot default 2.5e-6 ok 403626f6550fa62f 11fd70e2b08129d9
B hotspot default 1e-5 ok 40365dc0cf9bda68 898445085224f691
B hotspot default 4e-5 ok 403742bca5af972d 4c667adb9226c75a
B hotspot default 1e-4 ok 4039431b084815b5 f423d5e005bbe91f
B hotspot default 2e-4 ok 403d769f86e24d03 72593da6cea53308
B hotspot default 3e-4 ok 4041c1814198b3f8 7ca2b07fa787f740
B hotspot default 4e-4 ok 4046ff790c63b70a 7d33d4eb60b69168
B hotspot default 5e-4 saturated Channel 3ff4115dfbae4de5 Some(0)
B hotspot default 6e-4 saturated Channel 3ffe473511a4f77b Some(0)
B hotspot default 8e-4 saturated Channel 400a2d1f43893e3a Some(0)
B hotspot default 1.2e-3 saturated Channel 40173d39064194b3 Some(0)
B hotspot default 3e-3 saturated Channel 3ff987887532e700 Some(0)
B hotspot default 1e-2 saturated Channel 401674ecd119b1f6 Some(0)
B hotspot default 3e-2 saturated Channel 40367674a3769ab0 Some(0)
medium uniform default 2.5e-6 ok 4033f75da63e4d99 652ad9a3b5041881
medium uniform default 1e-5 ok 403403cec078bed3 510959ab097a6b75
medium uniform default 4e-5 ok 4034360da5e0d186 92ff91985911c415
medium uniform default 1e-4 ok 40349ce89bb7a33a d13a02b318a191c9
medium uniform default 2e-4 ok 40354fc0e4039617 a0e9fa13878bff99
medium uniform default 3e-4 ok 40360ca7fcc7bcf5 81c354a5ca627f85
medium uniform default 4e-4 ok 4036d4a49c41ff79 7f22298fcb9b8f51
medium uniform default 5e-4 ok 4037a8e6cc0467ee 5214156fa05a3a65
medium uniform default 6e-4 ok 40388ad0f23bb2e8 e84c96b0dd865905
medium uniform default 8e-4 ok 403a7e6ba5fe02bc 0588e8fa84940ba1
medium uniform default 1.2e-3 ok 403f6a68b8f2a793 1c3fe2d355fbca85
medium uniform default 3e-3 saturated Concentrator 3ff0ba4fcd53467d Some(0)
medium uniform default 1e-2 saturated Channel 3ff0ddf5b88ca982 Some(0)
medium uniform default 3e-2 saturated Channel 4012c028a0f31c72 Some(0)
medium hotspot default 2.5e-6 ok 40342b379a86b22e 7271092e91c364ea
medium hotspot default 1e-5 ok 40343ad7cab34bba c9687dea89fc8f66
medium hotspot default 4e-5 ok 40347a2702830ba1 10dbb137432eef89
medium hotspot default 1e-4 ok 4034fccd04dd2444 c3c012d82b513d28
medium hotspot default 2e-4 ok 4035e37e0d068706 5888f05983cbee33
medium hotspot default 3e-4 ok 4036dc59011d605d 29d1334788b70598
medium hotspot default 4e-4 ok 4037ea207ad72312 439d1638efdfbcbc
medium hotspot default 5e-4 ok 4039104622a5f002 8c2d6b62198d2951
medium hotspot default 6e-4 ok 403a5329eb6cef4c 9ccd65f863cbff4c
medium hotspot default 8e-4 ok 403d47bb0f9e7fdd 47fc478a29e2210c
medium hotspot default 1.2e-3 ok 4043246d4fc5096a a5c30f76c4978111
medium hotspot default 3e-3 saturated Channel 3ffd80a92ced76a6 Some(0)
medium hotspot default 1e-2 saturated Concentrator 3ff2512a732d6dc0 Some(0)
medium hotspot default 3e-2 saturated Channel 40109f7f62d5b541 Some(0)
small_test uniform default 2.5e-6 ok 4031f83820a9ddcd 6f17a5d46e1459ed
small_test uniform default 1e-5 ok 4031fb842f52d786 5b58c64f0508f04e
small_test uniform default 4e-5 ok 403208bf6623c524 ca744de156a8957b
small_test uniform default 1e-4 ok 4032236b1d299b01 483d75f28a582940
small_test uniform default 2e-4 ok 4032507fd2fe9423 31826d040ec23484
small_test uniform default 3e-4 ok 40327e63da9c4287 b6bc878e2b29af89
small_test uniform default 4e-4 ok 4032ad1e3b4b7bfc fd1ac7d65330e5a6
small_test uniform default 5e-4 ok 4032dcb654665cab f6286fe7a51f7d32
small_test uniform default 6e-4 ok 40330d33e2fb92a2 17fc8ff17423ac0b
small_test uniform default 8e-4 ok 403371004e54e1ab a86a7d8d6aeb5e65
small_test uniform default 1.2e-3 ok 403444ddc141b01d a2ff8c81e1fc0d71
small_test uniform default 3e-3 ok 40391aaeee99abf0 590048296b287c42
small_test uniform default 1e-2 saturated Concentrator 3ff3967e4e4ba1b8 Some(0)
small_test uniform default 3e-2 saturated Concentrator 3ffcf7ccd18916d3 Some(0)
small_test hotspot default 2.5e-6 ok 40321b89f1e242c6 75accf7d5bea7efb
small_test hotspot default 1e-5 ok 40321f145e8c69ea 40187b7d70baf072
small_test hotspot default 4e-5 ok 40322d4b34975582 803ce2728dde97d1
small_test hotspot default 1e-4 ok 403249f8af2b00c7 5ad06e5bc694b140
small_test hotspot default 2e-4 ok 40327a85f1596fad c7a9df35e5dd02fa
small_test hotspot default 3e-4 ok 4032ac0cdaf8ccd0 5711d6dbf13f2dc5
small_test hotspot default 4e-4 ok 4032de96e6daa286 d18a34e6407cb9e3
small_test hotspot default 5e-4 ok 4033122e1777a83e 27190a2428346b74
small_test hotspot default 6e-4 ok 403346dd00fd7904 5ef3ef5337a93b23
small_test hotspot default 8e-4 ok 4033b3af6af2ea32 85ce3244a411ccb1
small_test hotspot default 1.2e-3 ok 40349c8c7e411619 e69ee8aebefaef17
small_test hotspot default 3e-3 ok 403a2b2aeb5e7898 8a92c12d18ac74f1
small_test hotspot default 1e-2 saturated Concentrator 3ff6f09b7df288ef Some(0)
small_test hotspot default 3e-2 saturated Concentrator 3ffa7c28fa16f04c Some(0)
";

#[test]
fn tree_model_bits_are_pinned() {
    let actual = actual();
    if actual != EXPECTED.trim() {
        // The full table, ready to paste over `EXPECTED` after a deliberate
        // change of the model's arithmetic.
        eprintln!("{actual}");
    }
    assert_eq!(actual.lines().count(), EXPECTED.trim().lines().count());
    for (got, want) in actual.lines().zip(EXPECTED.trim().lines()) {
        assert_eq!(got, want);
    }
}

/// Rates from the torus fabrics' low-load region to past the knee of every
/// fabric: the 16-ary 2-cube saturates first, the 4-ary 2-cube last.
const TORUS_RATES: [f64; 15] =
    [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 2e-3, 4e-3, 7e-3, 1.2e-2, 2e-2, 3.5e-2, 6e-2, 0.1, 0.2, 0.5];

fn render_error(error: ModelError) -> String {
    match error {
        ModelError::Saturated { component, utilization, cluster } => {
            format!("saturated {component:?} {:016x} {cluster:?}", utilization.to_bits())
        }
        e => format!("error {e}"),
    }
}

fn torus_actual() -> String {
    let mut lines = Vec::new();
    // The last four fabrics pin the ring enumeration's edge cases: an odd
    // radix (no direction tie), k = 2 (no dateline VC split), and a 1-D ring
    // (an empty inter class).
    for (radix, dimensions) in [(4, 2), (8, 2), (16, 2), (4, 3), (3, 2), (5, 2), (2, 3), (8, 1)] {
        let torus = TorusSystem::new(radix, dimensions).unwrap();
        // The hot spot is the last node.
        let hotspot = torus.total_nodes() - 1;
        for (routing_name, options) in [
            ("deterministic", ModelOptions::default()),
            ("adaptive1", ModelOptions::default().with_adaptive_torus(1)),
            ("adaptive2", ModelOptions::default().with_adaptive_torus(2)),
        ] {
            for (pattern_name, pattern) in [
                ("uniform", TrafficPattern::Uniform),
                ("hotspot", TrafficPattern::Hotspot { hotspot, fraction: 0.2 }),
            ] {
                for rate in TORUS_RATES {
                    let traffic = TrafficConfig::uniform(16, 256.0, rate)
                        .unwrap()
                        .with_pattern(pattern)
                        .unwrap();
                    let outcome = match TorusModel::new(&torus, &traffic, options)
                        .and_then(|model| model.evaluate())
                    {
                        Ok(r) => format!(
                            "ok {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {}",
                            r.total.to_bits(),
                            r.network.to_bits(),
                            r.source_wait.to_bits(),
                            r.tail.to_bits(),
                            r.intra.to_bits(),
                            r.inter.to_bits(),
                            r.escape_fraction.map_or_else(
                                || "-".to_string(),
                                |b| format!("{:016x}", b.to_bits())
                            ),
                        ),
                        Err(e) => render_error(e),
                    };
                    lines.push(format!(
                        "{radix}-ary {dimensions}-cube {routing_name} {pattern_name} {rate:e} {outcome}"
                    ));
                }
            }
        }
    }
    lines.join("\n")
}

const TORUS_EXPECTED: &str = "
4-ary 2-cube deterministic uniform 1e-5 ok 40237c16bdc74cb7 4020b465364163cc 3f3bf0686eedd9ba 3ff63bcd35a85879 4022a63121314bb4 4023b19024ecccf9 -
4-ary 2-cube deterministic uniform 3e-5 ok 40237cde4d593510 4020b4bcf4bd1a93 3f54f63ce1edb894 3ff63bcd35a85879 4022a6cccb6cad71 4023b262add456f8 -
4-ary 2-cube deterministic uniform 1e-4 ok 40237f997c65cd9e 4020b5f0257db22d 3f717d8198831210 3ff63bcd35a85879 4022a8ee452c52ed 4023b5444a342c4b -
4-ary 2-cube deterministic uniform 3e-4 ok 4023876d5add8782 4020b95e929d8977 3f8a54862bcbf055 3ff63bcd35a85879 4022af0a59537965 4023bd861b400b09 -
4-ary 2-cube deterministic uniform 1e-3 ok 4023a31c1a2f2fe0 4020c569b721a7cc 3fa638bc587d0525 3ff63bcd35a85879 4022c4ae868baf22 4023dab77f18100e -
4-ary 2-cube deterministic uniform 2e-3 ok 4023cb723944e933 4020d6b5af10f682 3fb6a171bf73d0c0 3ff63bcd35a85879 4022e44f6adcdd09 4024053aecdeec3e -
4-ary 2-cube deterministic uniform 4e-3 ok 40241f09b1ffcb68 4020f9a16ebb701b 3fc77ba723d40f9c 3ff63bcd35a85879 402326357ab8edcd 40245d3ebfd182cf -
4-ary 2-cube deterministic uniform 7e-3 ok 4024a44d33966f1b 40212ed87e23845a 3fd5bf61d7bbf642 3ff63bcd35a85879 40239039b2f652ff 4024e95213be7622 -
4-ary 2-cube deterministic uniform 1.2e-2 ok 40259a624efd7974 402189d4b7f515c8 3fe4913f053589ca 3ff63bcd35a85879 402456f0bde2e27a 4025eb3eb3441f32 -
4-ary 2-cube deterministic uniform 2e-2 ok 4027725e184afcc1 402221adc6cb962b 3ff449b55652dc3a 3ff63bcd35a85879 4025ddc06718da73 4027d78584978554 -
4-ary 2-cube deterministic uniform 3.5e-2 ok 402c8335fb2eca27 4023552c18133b7a 40099a40f19a0e79 3ff63bcd35a85879 402a429b886ca23f 402d135c97df5420 -
4-ary 2-cube deterministic uniform 6e-2 ok 4039b902049dad43 4025a35898359813 402b0731ca50b763 3ff63bcd35a85879 4037e6fd9155d864 403a2d83216fa27a -
4-ary 2-cube deterministic uniform 1e-1 saturated Channel 4002711a29e09745 None
4-ary 2-cube deterministic uniform 2e-1 saturated Channel 401640a6fdf4fcb2 None
4-ary 2-cube deterministic uniform 5e-1 saturated Channel 402c83126e978d50 None
4-ary 2-cube deterministic hotspot 1e-5 ok 40237c24d427b366 4020b4734c305667 3f3bf0a128f8236a 3ff63bcd35a85879 4022a6317b1d8ac1 4023b19111269535 -
4-ary 2-cube deterministic hotspot 3e-5 ok 40237d0895607416 4020b4e738c6afe8 3f54f6bc9723e4c3 3ff63bcd35a85879 4022a6cddbdd88c7 4023b26575438730 -
4-ary 2-cube deterministic hotspot 1e-4 ok 40238026a5bddcdd 4020b67d226746af 3f717ee50c58fab2 3ff63bcd35a85879 4022a8f1f090f6da 4023b54dade626d5 -
4-ary 2-cube deterministic hotspot 3e-4 ok 40238916c42c4f48 4020bb0669bff777 3f8a5acedd3309c9 3ff63bcd35a85879 4022af16697bebfb 4023bda35cd106dd -
4-ary 2-cube deterministic hotspot 1e-3 ok 4023a8bd0430fabf 4020caf8d1ed98cc 3fa64a8b8e56e3ce 3ff63bcd35a85879 4022c4e35be1bedb 4023db2607742ea7 -
4-ary 2-cube deterministic hotspot 2e-3 ok 4023d6f79f80a5d4 4020e1f1c0dac894 3fb6c61bf869189d 3ff63bcd35a85879 4022e4def04e0c1e 4024063ef7ada66e -
4-ary 2-cube deterministic hotspot 4e-3 ok 40243733711f479c 40211094135de7be 3fc7c96dc31533bb 3ff63bcd35a85879 402327f98a8acfda 40245ff06a0cb4e9 -
4-ary 2-cube deterministic hotspot 7e-3 ok 4024d1d8d33f1cd4 40215850bdd7f60d 3fd641cdd6437700 3ff63bcd35a85879 40239545448f8f4d 4024f009bf4da432 -
4-ary 2-cube deterministic hotspot 1.2e-2 ok 4025f3889c5dccbd 4021d4f0841e21bb 3fe571e718a9ff38 3ff63bcd35a85879 402466a9155a6579 4025fdf9995a2dfc -
4-ary 2-cube deterministic hotspot 2e-2 ok 40282f140a621006 4022aaeb29596aa6 3ff5e579d29cd286 3ff63bcd35a85879 402614111c09b1b2 402813436773fc02 -
4-ary 2-cube deterministic hotspot 3.5e-2 saturated Channel 4002df9c2ed3b3d5 None
4-ary 2-cube deterministic hotspot 6e-2 saturated Channel 40133edfa43fe5c8 None
4-ary 2-cube deterministic hotspot 1e-1 saturated Channel 402009ba5e353f7f None
4-ary 2-cube deterministic hotspot 2e-1 saturated Channel 403009ba5e353f7f None
4-ary 2-cube deterministic hotspot 5e-1 saturated Channel 40440c28f5c28f5c None
4-ary 2-cube adaptive1 uniform 1e-5 ok 40237bf7a657e1b0 4020b4461fcc5c90 3f3befeb3d0847dd 3ff63bcd35a85879 4022a627fb8a432c 4023b16b910b4951 3e84f00c3afc7a27
4-ary 2-cube adaptive1 uniform 3e-5 ok 40237c80ff1205a0 4020b45faf445115 3f54f523152f75ba 3ff63bcd35a85879 4022a6b15444671c 4023b1f4e9c56d41 3eae5b730e37e4e9
4-ary 2-cube adaptive1 uniform 1e-4 ok 40237e621a54bf45 4020b4b925682919 3f717a71bc58eb24 3ff63bcd35a85879 4022a8926f87209c 4023b3d6050826ef 3eda0c499ebddbe3
4-ary 2-cube adaptive1 uniform 3e-4 ok 402383c41301846c 4020b5b8c017ca66 3f8a46b0d2bbdd80 3ff63bcd35a85879 4022adf46833d790 4023b937fdb4efa3 3f02e1e64d2e412a
4-ary 2-cube adaptive1 uniform 1e-3 ok 402396c2c9cdaaca 4020b9375d8aa32b 3fa611c58dfc8fc2 3ff63bcd35a85879 4022c0f31ef73a30 4023cc36b48346f0 3f30325be9d9c770
4-ary 2-cube adaptive1 uniform 2e-3 ok 4023b252ebcba7af 4020be3563d228b9 3fb651f0a239f393 3ff63bcd35a85879 4022dc83405b7fce 4023e7c6d6a7b1a8 3f4887a9880603c6
4-ary 2-cube adaptive1 uniform 4e-3 ok 4023eb0355684874 4020c8317e5e5457 3fc6d60c153a4395 3ff63bcd35a85879 402315339ee4d749 40242077430924bf 3f628b8d8ef76832
4-ary 2-cube adaptive1 uniform 7e-3 ok 402444314863b674 4020d72c2c72600e 3fd4b16ea7896ae6 3ff63bcd35a85879 40236e61227e4d6e 402479a551dd10b6 3f769568c22afce5
4-ary 2-cube adaptive1 uniform 1.2e-2 ok 4024e511f9db3cfa 4020f028217ebc2b 3fe2d7031a775c07 3ff63bcd35a85879 40240f3db29cb359 40251a870baadf62 3f8a6e51b8de38d2
4-ary 2-cube adaptive1 uniform 2e-2 ok 40260c5c507763fd 402118489b13b121 3ff164d075753e67 3ff63bcd35a85879 40253665efe9c05a 402641d9e89acce6 3f9d2c5142e6d47b
4-ary 2-cube adaptive1 uniform 3.5e-2 ok 4028e70a94f177e2 402165104d091605 4002ea0284cd5b39 3ff63bcd35a85879 40280fbd7cf31cf4 40291cdddaf10e9c 3fb0c7647dc7105e
4-ary 2-cube adaptive1 uniform 6e-2 ok 4030f0252ff2f570 4021f13c6e370ff8 401a4f2895f39fb2 3ff63bcd35a85879 40307f0f152435ca 40310c6ab6a6a55a 3fc18173a869c6fe
4-ary 2-cube adaptive1 uniform 1e-1 ok 4061c144c15caa3a 40231a5a1efcd742 4060632785018c15 3ff63bcd35a85879 4061aec556ef9d06 4061c5e49bf7ed87 3fcfc601abf56b0c
4-ary 2-cube adaptive1 uniform 2e-1 saturated Channel 4003a0024ba0ec15 None
4-ary 2-cube adaptive1 uniform 5e-1 saturated Channel 40221c23a9505b63 None
4-ary 2-cube adaptive1 hotspot 1e-5 ok 40237bfe7d4cc0e0 4020b44cf68a26f8 3f3bf006c76c6643 3ff63bcd35a85879 4022a62824785ca8 4023b16bb9f962ce 3e8c52c1e96ce929
4-ary 2-cube adaptive1 hotspot 3e-5 ok 40237c95853b4305 4020b474337db051 3f54f56110f497cc 3ff63bcd35a85879 4022a6b1d0595364 4023b1f565da5989 3eb4886027bd6ae4
4-ary 2-cube adaptive1 hotspot 1e-4 ok 40237ea69349a3c8 4020b4fd88d211d8 3f717b1e143708b1 3ff63bcd35a85879 4022a8941c384b73 4023b3d7b1b951c7 3ee19e33865ab604
4-ary 2-cube adaptive1 hotspot 3e-4 ok 40238491ffac23c3 4020b685ea55c392 3f8a49ba855489bb 3ff63bcd35a85879 4022adf9f0130b12 4023b93d85942385 3f098abbe484a3c9
4-ary 2-cube adaptive1 hotspot 1e-3 ok 4023997731894c21 4020bbe33fd5e0d2 3fa61a4afe60403f 3ff63bcd35a85879 4022c10b8be58840 4023cc4f2171cff5 3f35e749a128626a
4-ary 2-cube adaptive1 hotspot 2e-3 ok 4023b7cd4454ec34 4020c38d2b035d58 3fb663394e41e652 3ff63bcd35a85879 4022dcc5a0b0a830 4023e80937011b28 3f509391de25d658
4-ary 2-cube adaptive1 hotspot 4e-3 ok 4023f6415eaded74 4020d2e13d8bdd52 3fc6f99e9b4144d5 3ff63bcd35a85879 40231601870e9800 402421452b81c2e3 3f6904e603aafef3
4-ary 2-cube adaptive1 hotspot 7e-3 ok 402458ae53bc27d2 4020e9e1a2db303e 3fd4ea61457d9097 3ff63bcd35a85879 402370980cf53600 40247bdc3f9732c8 3f7e5a146cbaa8a7
4-ary 2-cube adaptive1 hotspot 1.2e-2 ok 40250adff42e9f9c 4021104ce6ce5093 3fe331966ab43fa5 3ff63bcd35a85879 402415a5cc1551df 402520ef44cfea59 3f919d2596d86962
4-ary 2-cube adaptive1 hotspot 2e-2 ok 402654b016d4b37d 40214e70eee297b7 3ff1f62c09e885b7 3ff63bcd35a85879 402549cfd29fe4f8 40265544da567466 3fa32085db451630
4-ary 2-cube adaptive1 hotspot 3.5e-2 ok 40299aff202833f9 4021c99d3d459b5f 400427a0f0b6362b 3ff63bcd35a85879 4028615556073e30 40296e8080901e45 3fb548f3e14eed30
4-ary 2-cube adaptive1 hotspot 6e-2 saturated Channel 3ffec0646de1e881 None
4-ary 2-cube adaptive1 hotspot 1e-1 saturated Channel 4012d06e5479031b None
4-ary 2-cube adaptive1 hotspot 2e-1 saturated Channel 4028101785d21dcb None
4-ary 2-cube adaptive1 hotspot 5e-1 saturated Channel 4041d44c881c7fcf None
4-ary 2-cube adaptive2 uniform 1e-5 ok 40237bf7a657e1b0 4020b4461fcc5c90 3f3befeb3d0847dd 3ff63bcd35a85879 4022a627fb8a432c 4023b16b910b4951 3d30bed1a0c98aef
4-ary 2-cube adaptive2 uniform 3e-5 ok 40237c80ff1205a0 4020b45faf445115 3f54f523152f75ba 3ff63bcd35a85879 4022a6b15444671c 4023b1f4e9c56d41 3d44891228177a98
4-ary 2-cube adaptive2 uniform 1e-4 ok 40237e621a54bf11 4020b4b9256828e5 3f717a71bc58eaa1 3ff63bcd35a85879 4022a8926f87208c 4023b3d6050826b2 3d92b56e0bf58349
4-ary 2-cube adaptive2 uniform 3e-4 ok 402383c413017007 4020b5b8c017b614 3f8a46b0d2bb907b 3ff63bcd35a85879 4022adf46833d183 4023b937fdb4d7a8 3de368d4aa381a4d
4-ary 2-cube adaptive2 uniform 1e-3 ok 402396c2c9c103fe 4020b9375d7e2437 3fa611c58dd4b82b 3ff63bcd35a85879 4022c0f31ef36579 4023cc36b4746b9f 3e3c91d55e46c148
4-ary 2-cube adaptive2 uniform 2e-3 ok 4023b252eadf949e 4020be3562ebe620 3fb651f09f51b76a 3ff63bcd35a85879 4022dc834011f61a 4023e7c6d592fc40 3e7068a9590a44a8
4-ary 2-cube adaptive2 uniform 4e-3 ok 4023eb0343f4ddd8 4020c8316dc76a04 3fc6d60bde1a312f 3ff63bcd35a85879 4023153399273f48 402420772ea8457c 3ea2d947ff90db8c
4-ary 2-cube adaptive2 uniform 7e-3 ok 402444308978f06d 4020d72b7e10b400 3fd4b16c96662bc8 3ff63bcd35a85879 40236e60deab4edc 402479a4742c58d0 3ecc3eb3b3618e4f
4-ary 2-cube adaptive2 uniform 1.2e-2 ok 4024e50a4cb60967 4020f02199366962 3fe2d6f0cca94f59 3ff63bcd35a85879 40240f3aa1e7c15f 40251a7e37699b6a 3ef3cf7c2c825558
4-ary 2-cube adaptive2 uniform 2e-2 ok 40260c13446bc079 40211811c4cea065 3ff1643ec740a828 3ff63bcd35a85879 40253643997fb6c0 402641872f26c2e6 3f19638af58625c5
4-ary 2-cube adaptive2 uniform 3.5e-2 ok 4028e34d97819476 402162f42198325a 4002e37f3cd15c34 3ff63bcd35a85879 40280d7de491651c 402918c1843da04d 3f42fe518b776775
4-ary 2-cube adaptive2 uniform 6e-2 ok 4030d0bd3bdbaa0f 4021dfc55ffe11a1 4019f476e2086edc 3ff63bcd35a85879 403065d46d351f94 4030eb776f854cae 3f6a6b6af813ce4f
4-ary 2-cube adaptive2 uniform 1e-1 ok 40575b5688dc303d 4022a7fe98f14ad2 4054ad6780e76581 3ff63bcd35a85879 405740904c768baa 4057620817f59962 3f90416ebe60326e
4-ary 2-cube adaptive2 uniform 2e-1 saturated InjectionQueue 4000bff263a5eae1 None
4-ary 2-cube adaptive2 uniform 5e-1 saturated Channel 4017227bb8fb4c7b None
4-ary 2-cube adaptive2 hotspot 1e-5 ok 40237bfe7d4cc0e0 4020b44cf68a26f8 3f3bf006c76c6643 3ff63bcd35a85879 4022a62824785ca8 4023b16bb9f962ce 3d31c41141463061
4-ary 2-cube adaptive2 hotspot 3e-5 ok 40237c95853b4304 4020b474337db050 3f54f56110f497ca 3ff63bcd35a85879 4022a6b1d0595364 4023b1f565da5989 3d52d94ab7673f37
4-ary 2-cube adaptive2 hotspot 1e-4 ok 40237ea69349a2f1 4020b4fd88d21101 3f717b1e14370693 3ff63bcd35a85879 4022a8941c384b64 4023b3d7b1b95189 3da5fd7d18bc4bd5
4-ary 2-cube adaptive2 hotspot 3e-4 ok 40238491ffabce47 4020b685ea556e66 3f8a49ba855346d7 3ff63bcd35a85879 4022adf9f01304a8 4023b93d85940acd 3df6fc7064f29d9a
4-ary 2-cube adaptive2 hotspot 1e-3 ok 402399773153f883 4020bbe33fa13548 3fa61a4afdb82c59 3ff63bcd35a85879 4022c10b8be11fa7 4023cc4f216225cc 3e50ebc3926df494
4-ary 2-cube adaptive2 hotspot 2e-3 ok 4023b7cd406ade78 4020c38d27320844 3fb6633941e59250 3ff63bcd35a85879 4022dcc5a052cb42 4023e80935d3d167 3e836fde7d88a38a
4-ary 2-cube adaptive2 hotspot 4e-3 ok 4023f64113bfd14e 4020d2e0f653b046 3fc6f99dadc57e37 3ff63bcd35a85879 402316017e5d4760 4024214513de4d95 3eb653b7b2a82cfc
4-ary 2-cube adaptive2 hotspot 7e-3 ok 402458ab1597e5e3 4020e9dead06b1b1 3fd4ea583b852458 3ff63bcd35a85879 40237097904525b6 40247bdb25c62fc0 3ee0ba53ede6c770
4-ary 2-cube adaptive2 hotspot 1.2e-2 ok 40250abe2b117e7d 4021103032fad0a8 3fe33145161a2c5b 3ff63bcd35a85879 4024159ec064e164 402520e255e6c00a 3f0775aa631cc644
4-ary 2-cube adaptive2 hotspot 2e-2 ok 4026536ccaf46073 40214d7f75f37dac 3ff1f39d725ebdc2 3ff63bcd35a85879 4025496d84b88864 402654b11a606e02 3f2e0798b2a8f140
4-ary 2-cube adaptive2 hotspot 3.5e-2 ok 40298a77abbedd8d 4021c0762353f921 40040a1f86d76574 3ff63bcd35a85879 402859529d5b974a 402964963d44d03c 3f564d5cc5d3c45f
4-ary 2-cube adaptive2 hotspot 6e-2 saturated Channel 3ff01c0ca600b029 None
4-ary 2-cube adaptive2 hotspot 1e-1 saturated Channel 40013d3417ca52d2 None
4-ary 2-cube adaptive2 hotspot 2e-1 saturated Channel 401b51ab1b5b9389 None
4-ary 2-cube adaptive2 hotspot 5e-1 saturated Channel 40377534b4fc938c None
8-ary 2-cube deterministic uniform 1e-5 ok 402580589c1bc061 4020b4ca691d324a 3f3bf200024aa6ea 40032d593bfa2608 4023a4e905c1be01 4025bbc68ee700ae -
8-ary 2-cube deterministic uniform 3e-5 ok 402581eac561b99e 4020b5eca7cdce9d 3f54f9d2ac2fdc97 40032d593bfa2608 4023a5e18d41fc1e 4025bd6bec65b150 -
8-ary 2-cube deterministic uniform 1e-4 ok 4025876cee9873ec 4020b9e5afd12e3c 3f71877e45e16de3 40032d593bfa2608 4023a9490fda15c7 4025c3316a703fb2 -
8-ary 2-cube deterministic uniform 3e-4 ok 402597405c9275a7 4020c54998421bda 3f8a81d547412d14 40032d593bfa2608 4023b31167281c8e 4025d3c63b3fc0cc -
8-ary 2-cube deterministic uniform 1e-3 ok 4025cfaf49f1b693 4020ed9eb8bd4153 3fa6ba4235ebbd88 40032d593bfa2608 4023d5f9bd01686b 40260ee5fb8fc058 -
8-ary 2-cube deterministic uniform 2e-3 ok 4026233d03d6452d 40212887bd4ecd3b 3fb7af7bc47737c9 40032d593bfa2608 402409bcde55bea4 4026666d088655fe -
8-ary 2-cube deterministic uniform 4e-3 ok 4026d59cc1a3dfd7 4021a3275eead989 3fc9c7c4ee9f32ea 40032d593bfa2608 402478a215b7076e 4027213c17217ae6 -
8-ary 2-cube deterministic uniform 7e-3 ok 402801a9436e95dc 4022682e668cb283 3fd9c491bc6b3add 40032d593bfa2608 402534b700338263 40285b478bd5f84c -
8-ary 2-cube deterministic uniform 1.2e-2 ok 402a65d08fe7c3b8 4023d934719e7007 3fec145cf4aca2f3 40032d593bfa2608 4026bc35db56ef66 402adb03e679de42 -
8-ary 2-cube deterministic uniform 2e-2 ok 4030081a1e1a28a6 4026b1db800e1a6c 40024c09b49eb575 40032d593bfa2608 402a8e1612c8cafe 4030603c00b0e10a -
8-ary 2-cube deterministic uniform 3.5e-2 saturated Channel 400ac2388190451a None
8-ary 2-cube deterministic uniform 6e-2 saturated Channel 40243045a1010919 None
8-ary 2-cube deterministic uniform 1e-1 saturated Channel 40343c82f906c8ce None
8-ary 2-cube deterministic uniform 2e-1 saturated Channel 40465a1573a98264 None
8-ary 2-cube deterministic uniform 5e-1 saturated Channel 405ca3a83a83a83c None
8-ary 2-cube deterministic hotspot 1e-5 ok 402580bd01e8e9c4 4020b52ecbc1a837 3f3bf3945c0570e8 40032d593bfa2608 4023a4eaa2dd729f 4025bbca99f805aa -
8-ary 2-cube deterministic hotspot 3e-5 ok 402583186ca21dd0 4020b71a32914c14 3f54fd6249073af5 40032d593bfa2608 4023a5e677de74d4 4025bd78224562f0 -
8-ary 2-cube deterministic hotspot 1e-4 ok 40258b5fd853208b 4020bdd75ac86cc6 3f7191746152160c 40032d593bfa2608 4023a95a563e8333 4025c35b1143c82a -
8-ary 2-cube deterministic hotspot 3e-4 ok 4025a34838b56b69 4020d1460501c7fd 3f8aaf92d467a75b 40032d593bfa2608 4023b34d0912b8bf 4025d44b8a6d57dc -
8-ary 2-cube deterministic hotspot 1e-3 ok 4025fa1118526bfb 40211777f6993de0 3fa742d2baa498bd 40032d593bfa2608 4023d7243acfbfa1 4026110c9432a512 -
8-ary 2-cube deterministic hotspot 2e-3 ok 40267f5327f4393d 4021823da7cd2171 3fb8df98944724d8 40032d593bfa2608 40240d649fa6f184 40266c2061ff0172 -
8-ary 2-cube deterministic hotspot 4e-3 saturated Channel 3ff13d15ee238f5c None
8-ary 2-cube deterministic hotspot 7e-3 saturated Channel 4015ca11a68559da None
8-ary 2-cube deterministic hotspot 1.2e-2 saturated Channel 402d01f2f0940ecc None
8-ary 2-cube deterministic hotspot 2e-2 saturated Channel 403ac65dc3671132 None
8-ary 2-cube deterministic hotspot 3.5e-2 saturated Channel 40476d920afa2f0b None
8-ary 2-cube deterministic hotspot 6e-2 saturated Channel 405414c6528d4ce4 None
8-ary 2-cube deterministic hotspot 1e-1 saturated Channel 4060bbfa9a206abf None
8-ary 2-cube deterministic hotspot 2e-1 saturated Channel 4070bbfa9a206abf None
8-ary 2-cube deterministic hotspot 5e-1 saturated Channel 4084eaf940a8856f None
8-ary 2-cube adaptive1 uniform 1e-5 ok 40257fd44ea16023 4020b4461fcc5c90 3f3befeb3d0847dd 40032d593bfa2608 4023a4b17dbbffe2 4025bb38a8be0c2c 3e7148d2b42f18d4
8-ary 2-cube adaptive1 uniform 3e-5 ok 4025805da75b8413 4020b45faf445115 3f54f523152f75ba 40032d593bfa2608 4023a53ad67623d2 4025bbc20178301c 3e9e7736da279f92
8-ary 2-cube adaptive1 uniform 1e-4 ok 4025823ec29e3dd9 4020b4b92568293a 3f717a71bc58eb77 40032d593bfa2608 4023a71bf1b8dd67 4025bda31cbae9e8 3ed030ac9d17fb99
8-ary 2-cube adaptive1 uniform 3e-4 ok 402587a0bb4b2007 4020b5b8c017e772 3f8a46b0d2bc4b97 40032d593bfa2608 4023ac7dea65a320 4025c3051567cfa4 3efc89213f26340a
8-ary 2-cube adaptive1 uniform 1e-3 ok 40259a9f7239ac64 4020b9375dacb9a3 3fa611c58e693f5d 40032d593bfa2608 4023bf7ca13943af 4025d603cc59b97a 3f2e5171d9bb52b0
8-ary 2-cube adaptive1 uniform 2e-3 ok 4025b62f978ee460 4020be356735fd0f 3fb651f0ad2ee7b5 40032d593bfa2608 4023db0cc42c4862 4025f193f1fb37e0 3f49f6d0bbe5cf9c
8-ary 2-cube adaptive1 uniform 4e-3 ok 4025eee0568efd76 4020c831d2d8b1e4 3fc6d60d2df0841e 40032d593bfa2608 402413bd4b031027 40262a44b8007b20 3f662e8a17ed9696
8-ary 2-cube adaptive1 uniform 7e-3 ok 40264812b58e72e2 4020d7308795a032 3fd4b17bdf4925cd 40032d593bfa2608 40246cecf855e4fc 402683776d3584a0 3f7dc037ae631326
8-ary 2-cube adaptive1 uniform 1.2e-2 ok 4026e92aa4a797f2 4020f05b3279f2c6 3fe2d79232f1baa4 40032d593bfa2608 40250de6668cf82a 402724932c6aebec 3f9300050e30d048
8-ary 2-cube adaptive1 uniform 2e-2 ok 402812d63f9d5ecd 40211a3efc4d084c 3ff16a07a28e67fb 40032d593bfa2608 4026366ff087b6ea 40284e63098013c8 3fa67c5de10ad6a1
8-ary 2-cube adaptive1 uniform 3.5e-2 ok 402b1126541f7360 40217a9a01a5a8c4 40032cd80ded0468 40032d593bfa2608 4029283ae2688d0f 402b4e43c256502a 3fbb02b2620ed114
8-ary 2-cube adaptive1 uniform 6e-2 ok 403354a6d4bd0cc5 4022ac3aec4d168a 401e6378dc5cf2fb 40032d593bfa2608 40322997fe6fbfbf 40337a08af86b666 3fcbc8dd622a3152
8-ary 2-cube adaptive1 uniform 1e-1 saturated Channel 40166e3396c2f94d None
8-ary 2-cube adaptive1 uniform 2e-1 saturated Channel 40379b982533e400 None
8-ary 2-cube adaptive1 uniform 5e-1 saturated Channel 405704be2bb22392 None
8-ary 2-cube adaptive1 hotspot 1e-5 ok 40257ff38af18b9e 4020b4655b20fb42 3f3bf069036d3c09 40032d593bfa2608 4023a4b188f04707 4025bb38b3f25352 3e83a0ea55f58291
8-ary 2-cube adaptive1 hotspot 3e-5 ok 402580bb62320545 4020b4bd61422d39 3f54f63e29d14130 40032d593bfa2608 4023a53afdf8f7f5 4025bbc228fb043e 3eb14c7580db6a57
8-ary 2-cube adaptive1 hotspot 1e-4 ok 402583777652468e 4020b5f176b66903 3f717d84eaa04853 40032d593bfa2608 4023a71cba55edf0 4025bda3e557fa72 3ee262a4866e97ba
8-ary 2-cube adaptive1 hotspot 3e-4 ok 40258b4d278bcc6e 4020b961b40a0e84 3f8a54920cd1a1fc 40032d593bfa2608 4023ac829559ffde 4025c309c05c2d4c 3f1033173bc4ac78
8-ary 2-cube adaptive1 hotspot 1e-3 ok 4025a6f9a02d98e9 4020c56a9219ae4d 3fa638bf15611a59 40032d593bfa2608 4023bfa798e99476 4025d62ec40ae556 3f412f7d73da8263
8-ary 2-cube adaptive1 hotspot 2e-3 ok 4025cf35047646cc 4020d69c764c96c0 3fb6a11f959344da 40032d593bfa2608 4023dbb31e5ba2cb 4025f23a4c3ec112 3f5d5064c32901ca
8-ary 2-cube adaptive1 hotspot 4e-3 ok 4026224d822d8004 4020f9103f72fc2c 3fc779bceefe9590 40032d593bfa2608 4024165c03dc7c74 40262ce372b5ed50 3f78b40fa2b4c9f6
8-ary 2-cube adaptive1 hotspot 7e-3 ok 4026a6b62fc342f6 40212d85de80f3ec 3fd5bb404878b0fa 40032d593bfa2608 402475571e03336f 40268be1aaa58818 3f9011d591f29a27
8-ary 2-cube adaptive1 hotspot 1.2e-2 saturated Channel 3ff56adde025f898 None
8-ary 2-cube adaptive1 hotspot 2e-2 saturated Channel 402754bdae1bb5dd None
8-ary 2-cube adaptive1 hotspot 3.5e-2 saturated Channel 4038f436dbf20811 None
8-ary 2-cube adaptive1 hotspot 6e-2 saturated Channel 404df24d9e5b07f3 None
8-ary 2-cube adaptive1 hotspot 1e-1 saturated Channel 405b5e6242057668 None
8-ary 2-cube adaptive1 hotspot 2e-1 saturated Channel 406b94596c68360e None
8-ary 2-cube adaptive1 hotspot 5e-1 saturated Channel 40835c0ca775a2c7 None
8-ary 2-cube adaptive2 uniform 1e-5 ok 40257fd44ea16023 4020b4461fcc5c90 3f3befeb3d0847dd 40032d593bfa2608 4023a4b17dbbffe2 4025bb38a8be0c2c 3d301968a02ef29c
8-ary 2-cube adaptive2 uniform 3e-5 ok 4025805da75b8413 4020b45faf445115 3f54f523152f75ba 40032d593bfa2608 4023a53ad67623d2 4025bbc20178301c 3d34ef0789850d97
8-ary 2-cube adaptive2 uniform 1e-4 ok 4025823ec29e3d84 4020b4b9256828e5 3f717a71bc58eaa1 40032d593bfa2608 4023a71bf1b8dd43 4025bda31cbae98c 3d774b21cc6fd520
8-ary 2-cube adaptive2 uniform 3e-4 ok 402587a0bb4aee7a 4020b5b8c017b614 3f8a46b0d2bb907b 40032d593bfa2608 4023ac7dea658e39 4025c30515679a82 3dd154b51dd18ca8
8-ary 2-cube adaptive2 uniform 1e-3 ok 40259a9f720a8270 4020b9375d7e2436 3fa611c58dd4b828 40032d593bfa2608 4023bf7ca1252230 4025d603cc272e7a 3e338f7a0b91d304
8-ary 2-cube adaptive2 uniform 2e-3 ok 4025b62f93291312 4020be3562ebe621 3fb651f09f51b76d 40032d593bfa2608 4023db0cc243b2d0 4025f193ed45bf1a 3e6cbf9371c443f8
8-ary 2-cube adaptive2 uniform 4e-3 ok 4025eedfec3e5c99 4020c8316dc76a4e 3fc6d60bde1a3227 40032d593bfa2608 402413bd1b58fc23 40262a44465b08aa 3ea5204b8417dd1e
8-ary 2-cube adaptive2 uniform 7e-3 ok 4026480d31c28fe0 4020d72b7e10d224 3fd4b16c9666873e 40032d593bfa2608 40246cea60dd1b9f 402683718bdf3e68 3ed3503d4d5465af
8-ary 2-cube adaptive2 uniform 1.2e-2 ok 4026e8e6f50b5c4f 4020f02199407a84 3fe2d6f0ccc5848b 40032d593bfa2608 40250dc4241f9928 4027244b4f28d4b4 3f006824c135434a
8-ary 2-cube adaptive2 uniform 2e-2 ok 40280feff046c07a 40211811c77c68db 3ff1643ece5e70ec 40032d593bfa2608 402634cd1dba66a9 40284b544a984bb6 3f2934d791dd675a
8-ary 2-cube adaptive2 uniform 3.5e-2 ok 402ae72c2dad92a3 402162f5386c7b3f 4002e382990a3788 40032d593bfa2608 40290c08b4494be2 402b22909cda1b7c 3f56f1efd94c25d8
8-ary 2-cube adaptive2 uniform 6e-2 ok 4031d357f1cb320e 4021e025a736a5fa 4019f667dac2693f 40032d593bfa2608 4030e5a9cc26d63c 4031f10db67fbd88 3f82f43b872732cc
8-ary 2-cube adaptive2 uniform 1e-1 ok 405957e5678dd86c 4022bed2ab0d5ebd 405666a0484c5b64 40032d593bfa2608 40591acc726650b5 40595f888632c962 3fa92c6941d81853
8-ary 2-cube adaptive2 uniform 2e-1 saturated Channel 4029ff5321194f46 None
8-ary 2-cube adaptive2 uniform 5e-1 saturated Channel 404c4f603bf87628 None
8-ary 2-cube adaptive2 hotspot 1e-5 ok 40257ff38af18b9e 4020b4655b20fb42 3f3bf069036d3c09 40032d593bfa2608 4023a4b188f04707 4025bb38b3f25352 3d312a93ef183258
8-ary 2-cube adaptive2 hotspot 3e-5 ok 402580bb62320537 4020b4bd61422d2b 3f54f63e29d14107 40032d593bfa2608 4023a53afdf8f7f4 4025bbc228fb043e 3d527e77eef13a4a
8-ary 2-cube adaptive2 hotspot 1e-4 ok 4025837776523962 4020b5f176b65bdb 3f717d84eaa02728 40032d593bfa2608 4023a71cba55edc7 4025bda3e557fa10 3db06f8937d14c50
8-ary 2-cube adaptive2 hotspot 3e-4 ok 40258b4d27840587 4020b961b4024ef6 3f8a54920cb43b53 40032d593bfa2608 4023ac829559e337 4025c309c05bef80 3e096f99867b8b53
8-ary 2-cube adaptive2 hotspot 1e-3 ok 4025a6f99887df69 4020c56a8a8c21d7 3fa638befd340f88 40032d593bfa2608 4023bfa798bd4d9f 4025d62ec3bf59e8 3e6cbb4657484c60
8-ary 2-cube adaptive2 hotspot 2e-3 ok 4025cf34467a85a3 4020d69bbd07e49c 3fb6a11d3a0bc265 40032d593bfa2608 4023dbb317cabf14 4025f23a42cccb5e 3ea51d18aec78168
8-ary 2-cube adaptive2 hotspot 4e-3 ok 4026223a701c87fe 4020f8fe22038662 3fc7797fc69e0676 40032d593bfa2608 4024165ae39e3bd1 40262ce20ea0485a 3edf073648708c80
8-ary 2-cube adaptive2 hotspot 7e-3 ok 4026a5aa3b28a8f5 40212c91bb5f8505 3fd5b84619534dba 40032d593bfa2608 4024753d201216de 40268bc44b143a4a 3f0c586f62522d9d
8-ary 2-cube adaptive2 hotspot 1.2e-2 ok 4027959a5dc16377 402182889225b3a0 3fe47bb7c9d26550 40032d593bfa2608 402528407dda19d5 40273ec7a8e38990 3f37f6db445c53ae
8-ary 2-cube adaptive2 hotspot 2e-2 saturated Channel 3ff2ef911cf355cf None
8-ary 2-cube adaptive2 hotspot 3.5e-2 saturated Channel 402c1ea7c8bf770b None
8-ary 2-cube adaptive2 hotspot 6e-2 saturated Channel 4040861ea25d715e None
8-ary 2-cube adaptive2 hotspot 1e-1 saturated Channel 4051fbe554033c27 None
8-ary 2-cube adaptive2 hotspot 2e-1 saturated Channel 406970fb39be4bc7 None
8-ary 2-cube adaptive2 hotspot 5e-1 saturated Channel 40798f583485e47e None
16-ary 2-cube deterministic uniform 1e-5 ok 4029a686e565a134 4020b67fe93199c3 3f3bf8e29f45b12e 4011df9e14dd91cc 4025b72a233c0bb3 4029e57cb1883a8b -
16-ary 2-cube deterministic uniform 3e-5 ok 4029ab866001189e 4020bb0f0abc0bfe 3f55095ac8773e68 4011df9e14dd91cc 4025b9c5cc08c887 4029eaa269409da0 -
16-ary 2-cube deterministic uniform 1e-4 ok 4029bd1e853b5eaf 4020cb1919e21948 3f71b30753e40603 4011df9e14dd91cc 4025c2f076ad6aab 4029fcc166243df1 -
16-ary 2-cube deterministic uniform 3e-4 ok 4029f046a0a45568 4020f9a4dc046673 3f8b4ae8c4983a57 4011df9e14dd91cc 4025dd77565667c7 402a317395493441 -
16-ary 2-cube deterministic uniform 1e-3 ok 402aae6add954816 4021a57c380007c0 3fa91f9b2677705c 4011df9e14dd91cc 40263e7fc380b6dc 402af5698f36912a -
16-ary 2-cube deterministic uniform 2e-3 ok 402be08e3a37cb4e 4022b656eb86a674 3fbd3422212df9e1 4011df9e14dd91cc 4026d60fa7d1ac5f 402c3136235e2d3e -
16-ary 2-cube deterministic uniform 4e-3 ok 402eea9024c23a6b 40255721cf5c301b 3fd473e95ee82d36 4011df9e14dd91cc 402842efba337896 402f550a2b6b2687 -
16-ary 2-cube deterministic uniform 7e-3 saturated Channel 3ff0ba070db049a6 None
16-ary 2-cube deterministic uniform 1.2e-2 saturated Channel 4030bf576b5a0e12 None
16-ary 2-cube deterministic uniform 2e-2 saturated Channel 40556489ac85457c None
16-ary 2-cube deterministic uniform 3.5e-2 saturated Channel 40706b49f50991e5 None
16-ary 2-cube deterministic uniform 6e-2 saturated Channel 4080931fbe70154f None
16-ary 2-cube deterministic uniform 1e-1 saturated Channel 408cd47f3ece5499 None
16-ary 2-cube deterministic uniform 2e-1 saturated Channel 409fd80e6cff24ae None
16-ary 2-cube deterministic uniform 5e-1 saturated Channel 40b4669482d4c045 None
16-ary 2-cube deterministic hotspot 1e-5 ok 4029a95976eaa1a2 4020b95263f4eba5 3f3c0443768b4401 4011df9e14dd91cc 4025b732342cfd6f 4029e58e86adb09c -
16-ary 2-cube deterministic hotspot 3e-5 ok 4029b411baa89d06 4020c399963d105e 3f55233f987832a7 4011df9e14dd91cc 4025b9de90de21d1 4029ead893b44ca9 -
16-ary 2-cube deterministic hotspot 1e-4 ok 4029da88158d0266 4020e8794d7221b6 3f71fded60be4e50 4011df9e14dd91cc 4025c34a04907c76 4029fd7e17ffa447 -
16-ary 2-cube deterministic hotspot 3e-4 ok 402a518c8b5467de 40215a8b8e222c14 3f8cc7cb0dcb8ef1 4011df9e14dd91cc 4025dec9f73bdb20 402a33f9caf860b7 -
16-ary 2-cube deterministic hotspot 1e-3 saturated Channel 40347d87fd86f5f1 None
16-ary 2-cube deterministic hotspot 2e-3 saturated Channel 4063bae9e2790200 None
16-ary 2-cube deterministic hotspot 4e-3 saturated Channel 407f1f5d75a1b921 None
16-ary 2-cube deterministic hotspot 7e-3 saturated Channel 408bb9985e483a0b None
16-ary 2-cube deterministic hotspot 1.2e-2 saturated Channel 4097c3a72c3de8a2 None
16-ary 2-cube deterministic hotspot 2e-2 saturated Channel 40a3cdb5fa339723 None
16-ary 2-cube deterministic hotspot 3.5e-2 saturated Channel 40b153ff3aed243f None
16-ary 2-cube deterministic hotspot 6e-2 saturated Channel 40bdb490f74d62b5 None
16-ary 2-cube deterministic hotspot 1e-1 saturated Channel 40c8c12378c07cec None
16-ary 2-cube deterministic hotspot 2e-1 saturated Channel 40d8c12378c07cec None
16-ary 2-cube deterministic hotspot 5e-1 saturated Channel 40eef16c56f09c0d None
16-ary 2-cube adaptive1 uniform 1e-5 ok 4029a44d0a119f88 4020b4461fcc5c91 3f3befeb3d0847e3 4011df9e14dd91cc 4025b6216dd18864 4029e32fc3d5a0f9 3e759d1c2a81047a
16-ary 2-cube adaptive1 uniform 3e-5 ok 4029a4d662cbc379 4020b45faf445117 3f54f523152f75c0 4011df9e14dd91cc 4025b6aac68bac57 4029e3b91c8fc4eb 3ea55e06054fbc42
16-ary 2-cube adaptive1 uniform 1e-4 ok 4029a6b77e0e8084 4020b4b925682c80 3f717a71bc58f3b7 4011df9e14dd91cc 4025b88be1ce6774 4029e59a37d28215 3ed9c1d1a4aa1bbb
16-ary 2-cube adaptive1 uniform 3e-4 ok 4029ac1976bdd543 4020b5b8c01a5af8 3f8a46b0d2c595fb 4011df9e14dd91cc 4025bdedda7c53b6 4029eafc3081ed5a 3f097620fc69a89b
16-ary 2-cube adaptive1 uniform 1e-3 ok 4029bf1830b9f5a0 4020b93760b31e64 3fa611c5980e560f 4011df9e14dd91cc 4025d0ec92c24e1e 4029fdfaea997016 3f3eab2220b64626
16-ary 2-cube adaptive1 uniform 2e-3 ok 4029daa8a7f6181e 4020be35ba153bbc 3fb651f1b909bdf3 4011df9e14dd91cc 4025ec7cdd0b1861 402a198b64a4c819 3f5c333d2f43fa7a
16-ary 2-cube adaptive1 uniform 4e-3 ok 402a13624fb8ce9c 4020c83a9bcdd80b 3fc6d62a5f0b6aa8 4011df9e14dd91cc 40262531c938d35b 402a52455820ce50 3f79c4ad6014c527
16-ary 2-cube adaptive1 uniform 7e-3 ok 402a6d125219057f 4020d7abb9d80a21 3fd4b2f1ba464f05 4011df9e14dd91cc 40267ea20b761be9 402aabf956833419 3f92138454a396e2
16-ary 2-cube adaptive1 uniform 1.2e-2 ok 402b146c4558d403 4020f62101b4f505 3fe2e7c393516181 4011df9e14dd91cc 4027230987bef678 402b5382713271db 3fa796bd078ba9c2
16-ary 2-cube adaptive1 uniform 2e-2 ok 402c802ffd627afb 402150ce37101231 3ff1fc95df1cff21 4011df9e14dd91cc 40287346f7c3378c 402cc0fe8dbc6f32 3fbb460607a7fce7
16-ary 2-cube adaptive1 uniform 3.5e-2 saturated Channel 3ff62275bdb5e02c None
16-ary 2-cube adaptive1 uniform 6e-2 saturated Channel 4062bb3cb9757b5f None
16-ary 2-cube adaptive1 uniform 1e-1 saturated Channel 407f618f841b2f6a None
16-ary 2-cube adaptive1 uniform 2e-1 saturated Channel 40978b8a6a30b91a None
16-ary 2-cube adaptive1 uniform 5e-1 saturated Channel 40b28929f1687b86 None
16-ary 2-cube adaptive1 hotspot 1e-5 ok 4029a4ce6728aa27 4020b4c778d188c0 3f3bf1f42c4051a6 4011df9e14dd91cc 4025b6217471bd0d 4029e32fca75d5a2 3e9d0428f86e8aab
16-ary 2-cube adaptive1 hotspot 3e-5 ok 4029a65a928026f8 4020b5e3ba53dcfb 3f54f9b7b022e20b 4011df9e14dd91cc 4025b6aaf2db869a 4029e3b948df9f2f 3eccaf53b8a9d001
16-ary 2-cube adaptive1 hotspot 1e-4 ok 4029abc6900f9ed3 4020b9c69fa51200 3f71872fde1f692a 4011df9e14dd91cc 4025b88d9321fe81 4029e59be9261932 3f0149232d4d00a0
16-ary 2-cube adaptive1 hotspot 3e-4 ok 4029bb505216280c 4020c4e135b9d3ba 3f8a8047b62db155 4011df9e14dd91cc 4025bdfc8ce351c8 4029eb0ae2e8f705 3f310fd6bcff3129
16-ary 2-cube adaptive1 hotspot 1e-3 ok 4029f24b17e7c9d7 4020ebc7c1a79962 3fa6b44bd1678f62 4011df9e14dd91cc 4025d19018a0d070 4029fe9e70860161 3f644176c6970cd6
16-ary 2-cube adaptive1 hotspot 2e-3 ok 402a437afc6db6f1 402124688548eb1c 3fb7a1b65b017776 4011df9e14dd91cc 4025ef1e66ba78ba 402a1c2cefd24cc5 3f81e0a90368388f
16-ary 2-cube adaptive1 hotspot 4e-3 saturated Channel 405f49eb07397f58 None
16-ary 2-cube adaptive1 hotspot 7e-3 saturated Channel 407cd31be99a3aac None
16-ary 2-cube adaptive1 hotspot 1.2e-2 saturated Channel 408b564933e6622a None
16-ary 2-cube adaptive1 hotspot 2e-2 saturated Channel 409ee51038b1c4b1 None
16-ary 2-cube adaptive1 hotspot 3.5e-2 saturated Channel 40ae5ab24c19de59 None
16-ary 2-cube adaptive1 hotspot 6e-2 saturated Channel 40b8a2da3b7665ff None
16-ary 2-cube adaptive1 hotspot 1e-1 saturated Channel 40c1a5ec357bd023 None
16-ary 2-cube adaptive1 hotspot 2e-1 saturated Channel 40d4486a082f24d6 None
16-ary 2-cube adaptive1 hotspot 5e-1 saturated Channel 40e92d9f47f70817 None
16-ary 2-cube adaptive2 uniform 1e-5 ok 4029a44d0a119f88 4020b4461fcc5c91 3f3befeb3d0847e3 4011df9e14dd91cc 4025b6216dd18864 4029e32fc3d5a0f9 3d30225e80ae844b
16-ary 2-cube adaptive2 uniform 3e-5 ok 4029a4d662cbc377 4020b45faf445115 3f54f523152f75ba 4011df9e14dd91cc 4025b6aac68bac55 4029e3b91c8fc4e8 3d3865c296251146
16-ary 2-cube adaptive2 uniform 1e-4 ok 4029a6b77e0e7ce7 4020b4b9256828e4 3f717a71bc58ea9e 4011df9e14dd91cc 4025b88be1ce65c6 4029e59a37d27e5a 3d88e7c3ec693a6a
16-ary 2-cube adaptive2 uniform 3e-4 ok 4029ac1976bb2dde 4020b5b8c017b614 3f8a46b0d2bb907b 4011df9e14dd91cc 4025bdedda7b16bc 4029eafc307f2f51 3de7dc20db35a216
16-ary 2-cube adaptive2 uniform 1e-3 ok 4029bf182d7ac1d4 4020b9375d7e2436 3fa611c58dd4b828 4011df9e14dd91cc 4025d0ec913aaab3 4029fdfae73ec347 3e5154845a633f5a
16-ary 2-cube adaptive2 uniform 2e-3 ok 4029daa84e99528e 4020be3562ebe639 3fb651f09f51b7bb 4011df9e14dd91cc 4025ec7cb2593b5e 402a198b085d5400 3e8d71b7784a1d5c
16-ary 2-cube adaptive2 uniform 4e-3 ok 402a1358a7aec054 4020c8316dc78cda 3fc6d60bde1aa4f2 4011df9e14dd91cc 4026252d0b6e9682 402a523b6172c2f0 3ec9034fa3a7897e
16-ary 2-cube adaptive2 uniform 7e-3 ok 402a6c85ed44acb2 4020d72b7e212376 3fd4b16c96980ac4 4011df9e14dd91cc 40267e5a50fbc683 402aab68a7093b16 3ef9b44ea9b4354d
16-ary 2-cube adaptive2 uniform 1.2e-2 ok 402b0d5fb82b6a2b 4020f0219fcb06dd 3fe2d6f0df19a681 4011df9e14dd91cc 40271f341864da5e 402b4c427227d328 3f286dd3f8524ef0
16-ary 2-cube adaptive2 uniform 2e-2 ok 402c346b738871d8 40211813dddbcc5c 3ff1644459eee4ad 4011df9e14dd91cc 4028463eb7a56663 402c734e3f46a28f 3f54cef1c66e2172
16-ary 2-cube adaptive2 uniform 3.5e-2 ok 402f0d68ccaa851f 402163f450b1ddc3 4002e695c62779d7 4011df9e14dd91cc 402b1eb3f53758a8 402f4c541a21b7e4 3f84aea71795c1ae
16-ary 2-cube adaptive2 uniform 6e-2 ok 40347a03f1627e83 40223157a1aab563 401ba5c26d56fd7b 4011df9e14dd91cc 40326c8e72089061 40349adb49581d66 3fb00569428e103a
16-ary 2-cube adaptive2 uniform 1e-1 saturated Channel 406606e3a3c1af31 None
16-ary 2-cube adaptive2 uniform 2e-1 saturated Channel 4089f89e20182ff0 None
16-ary 2-cube adaptive2 uniform 5e-1 saturated Channel 40a7987c73435b1e None
16-ary 2-cube adaptive2 hotspot 1e-5 ok 4029a4ce6728aa1b 4020b4c778d188b4 3f3bf1f42c405175 4011df9e14dd91cc 4025b6217471bd0d 4029e32fca75d5a2 3d3e2d544a83c433
16-ary 2-cube adaptive2 hotspot 3e-5 ok 4029a65a92801f7e 4020b5e3ba53d582 3f54f9b7b022cb73 4011df9e14dd91cc 4025b6aaf2db8697 4029e3b948df9f2b 3d8c361ac5720ae9
16-ary 2-cube adaptive2 hotspot 1e-4 ok 4029abc690066c40 4020b9c69f9be253 3f71872fde083982 4011df9e14dd91cc 4025b88d9321f9e1 4029e59be9261275 3df42354baa9563e
16-ary 2-cube adaptive2 hotspot 3e-4 ok 4029bb504b0885ec 4020c4e12eb2e261 3f8a80479b6a9267 4011df9e14dd91cc 4025bdfc8cdb5d11 4029eb0ae2df75a6 3e53ad7f01212132
16-ary 2-cube adaptive2 hotspot 1e-3 ok 4029f2415a9aa024 4020ebbe2383d78c 3fa6b42ca7ffb25a 4011df9e14dd91cc 4025d18ff7ee839d 4029fe9e4df29c32 3ebc97e381b0eb27
16-ary 2-cube adaptive2 hotspot 2e-3 ok 402a424dbef19ecd 40212342efdeb208 3fb79de25211efa1 4011df9e14dd91cc 4025ef1694f217af 402a1c24eaf63051 3ef847d966b469fd
16-ary 2-cube adaptive2 hotspot 4e-3 ok 402ae84d977fabfa 4021924edc9d8c00 3fc98bec1cd5c4fa 4011df9e14dd91cc 402630088ad03b40 402a5d16e0d46849 3f348400852d1cfa
16-ary 2-cube adaptive2 hotspot 7e-3 saturated Channel 40608c0c1a64b4e3 None
16-ary 2-cube adaptive2 hotspot 1.2e-2 saturated Channel 40840620b049e68c None
16-ary 2-cube adaptive2 hotspot 2e-2 saturated Channel 4091d3347a84ff16 None
16-ary 2-cube adaptive2 hotspot 3.5e-2 saturated Channel 409cb4596b9acac4 None
16-ary 2-cube adaptive2 hotspot 6e-2 saturated Channel 40b036076d04e147 None
16-ary 2-cube adaptive2 hotspot 1e-1 saturated Channel 40bbba0f7741518b None
16-ary 2-cube adaptive2 hotspot 2e-1 saturated Channel 40cc20a0f6abf161 None
16-ary 2-cube adaptive2 hotspot 5e-1 saturated Channel 40ea798832881daa None
4-ary 3-cube deterministic uniform 1e-5 ok 4024708832ad31f8 4020b47b9e1a1c22 3f3bf0c2aaced8c6 3ffddea5986e01c2 4022a630b26fd3ff 40248772f916a9de -
4-ary 3-cube deterministic uniform 3e-5 ok 4024717c9ac6a066 4020b5002f78b282 3f54f70805b581a0 3ffddea5986e01c2 4022a6cb835ffdf4 4024886bdbf22886 -
4-ary 3-cube deterministic uniform 1e-4 ok 402474d50dcd28e1 4020b6d063e01bc6 3f717fb6fa67140b 3ffddea5986e01c2 4022a8ea31013e0b 40248bd3ff3dc16c -
4-ary 3-cube deterministic uniform 3e-4 ok 40247e6ce21134c1 4020bc008dd8336a 3f8a5e84ad047d36 3ffddea5986e01c2 4022aeffc6ddffbb 40249598bd06f768 -
4-ary 3-cube deterministic uniform 1e-3 ok 4024a068be408779 4020ce3efe98d24d 3fa6550c99f4f437 3ffddea5986e01c2 4022c49f32f41f62 4024b832d204597a -
4-ary 3-cube deterministic uniform 2e-3 ok 4024d216c035e310 4020e88aa62dba11 3fb6dbb37d3463a7 3ffddea5986e01c2 4022e46c72828732 4024eac5aa7edadc -
4-ary 3-cube deterministic uniform 4e-3 ok 402539a97c40253e 40211df873fe6fee 3fc7f7154cfd4619 3ffddea5986e01c2 402327736ac570cb 4025542c305314aa -
4-ary 3-cube deterministic uniform 7e-3 ok 4025e08b46d1e095 40217046dc0bb0ec 3fd68df6f70dee12 3ffddea5986e01c2 4023957896e1a1a5 4025fde5cf9de3bb -
4-ary 3-cube deterministic uniform 1.2e-2 ok 40271a9d5e6da87b 4021ff8b3f6733b6 3fe5f3d6bf8b48d6 3ffddea5986e01c2 40246b0106151208 40273cfec93ee334 -
4-ary 3-cube deterministic uniform 2e-2 ok 40298bdbbef54fb4 4022f6176f94a198 3ff6cf7ce2976f1c 3ffddea5986e01c2 40262ae971369703 4029b71b0fa53f56 -
4-ary 3-cube deterministic uniform 3.5e-2 ok 403079d3166a4540 4025083ba4f5c51f 40105f2ba9a20a52 3ffddea5986e01c2 402c052e367501a6 40309962e2f97579 -
4-ary 3-cube deterministic uniform 6e-2 saturated Channel 3ffaebcf829a8f2c None
4-ary 3-cube deterministic uniform 1e-1 saturated Channel 4013438448bda948 None
4-ary 3-cube deterministic uniform 2e-1 saturated Channel 4027d78e593d57e3 None
4-ary 3-cube deterministic uniform 5e-1 saturated Channel 403e8c6f2d593bfb None
4-ary 3-cube deterministic hotspot 1e-5 ok 402470cdf802e516 4020b4c1613ddf64 3f3bf1dba2bd0a37 3ffddea5986e01c2 4022a630ef9e21e0 402487743d9f4e54 -
4-ary 3-cube deterministic hotspot 3e-5 ok 4024724e1c1b2b18 4020b5d19d05ed25 3f54f980efb75906 3ffddea5986e01c2 4022a6cc481e691e 4024886fb6f28b04 -
4-ary 3-cube deterministic hotspot 1e-4 ok 40247791a9020ed3 4020b98c226c713f 3f71869c3eeae170 3ffddea5986e01c2 4022a8ed5ba38adb 40248be176642777 -
4-ary 3-cube deterministic hotspot 3e-4 ok 402486b63c5534be 4020c4420edd84fb 3f8a7de9a7be2be1 3ffddea5986e01c2 4022af0e8ad258d2 402495c67a7e0413 -
4-ary 3-cube deterministic hotspot 1e-3 ok 4024bcf3db4c01cd 4020ea6f38804935 3fa6afefbdf85f92 3ffddea5986e01c2 4022c5112d99c57f 4024b90cf7038c24 -
4-ary 3-cube deterministic hotspot 2e-3 ok 40250dfd92c01388 402122ef4967e380 3fb79ccb2537e81d 3ffddea5986e01c2 4022e61ceafb3ec1 4024ed491fad1cfc -
4-ary 3-cube deterministic hotspot 4e-3 ok 4025be325f79f255 40219ba939e817ff 3fc9ad1ca106879d 3ffddea5986e01c2 40232ea8833168cf 40255d1227be5b71 -
4-ary 3-cube deterministic hotspot 7e-3 saturated Channel 4001438362cf9ae2 None
4-ary 3-cube deterministic hotspot 1.2e-2 saturated Channel 4017f4dfd5c6c0f7 None
4-ary 3-cube deterministic hotspot 2e-2 saturated Channel 40267dcb7444942e None
4-ary 3-cube deterministic hotspot 3.5e-2 saturated Channel 4033ae1205bc01a8 None
4-ary 3-cube deterministic hotspot 6e-2 saturated Channel 4040de5897336f22 None
4-ary 3-cube deterministic hotspot 1e-1 saturated Channel 404c1d3e5155b93a None
4-ary 3-cube deterministic hotspot 2e-1 saturated Channel 405c1d3e5155b93a None
4-ary 3-cube deterministic hotspot 5e-1 saturated Channel 40719246f2d593c3 None
4-ary 3-cube adaptive1 uniform 1e-5 ok 40247052b2b096d9 4020b4461fcc5c90 3f3befeb3d0847dd 3ffddea5986e01c2 4022a627fb8a432c 4024873b3bd8e7d5 3de73633336024e6
4-ary 3-cube adaptive1 uniform 3e-5 ok 402470dc0b6abac9 4020b45faf445115 3f54f523152f75ba 3ffddea5986e01c2 4022a6b15444671c 402487c494930bc4 3e21dd933df1aed9
4-ary 3-cube adaptive1 uniform 1e-4 ok 402472bd26ad7439 4020b4b9256828e4 3f717a71bc58ea9e 3ffddea5986e01c2 4022a8926f87208c 402489a5afd5c536 3e617ffafafcfd1e
4-ary 3-cube adaptive1 uniform 3e-4 ok 4024781f1f5a2531 4020b5b8c017b615 3f8a46b0d2bb907f 3ffddea5986e01c2 4022adf46833d183 40248f07a882762e 3e9af2649b438a20
4-ary 3-cube adaptive1 uniform 1e-3 ok 40248b1dd619bcc6 4020b9375d7e27ca 3fa611c58dd4c391 3ffddea5986e01c2 4022c0f31ef3661b 4024a2065f420de8 3eda654dd6838f7a
4-ary 3-cube adaptive1 uniform 2e-3 ok 4024a6adf738f8c6 4020be3562ec90d0 3fb651f09f53df1b 3ffddea5986e01c2 4022dc8340121632 4024bd96806150e7 3f001664afd5c54f
4-ary 3-cube adaptive1 uniform 4e-3 ok 4024df5e506f3da8 4020c8316de76b46 3fc6d60bde848a90 3ffddea5986e01c2 40231533992e1e74 4024f646d998e59f 3f239b036e9abb24
4-ary 3-cube adaptive1 uniform 7e-3 ok 4025388b98f3efdf 4020d72b80ed818b 3fd4b16c9f15c375 3ffddea5986e01c2 40236e60df68162b 40254f74223aedf5 3f4198f107dfbdbe
4-ary 3-cube adaptive1 uniform 1.2e-2 ok 4025d9659e1b49e3 4020f021d3f8a7c6 3fe2d6f1714e1e4b 3ffddea5986e01c2 40240f3ab5c2ab4b 4025f04e29b951d1 3f5e12acd9621e9c
4-ary 3-cube adaptive1 uniform 2e-2 ok 40270073b0d8b631 40211815cdd9a02c 3ff164497f8aae66 3ffddea5986e01c2 4025364598ae7e44 4027175c654138fb 3f77f1bf781782c6
4-ary 3-cube adaptive1 uniform 3.5e-2 ok 4029d84b0f9bd037 4021634fd32f46c0 4002e49a257b24fc 3ffddea5986e01c2 40280dd389f2b512 4029ef376fe444c5 3f94cd4f5dc376ed
4-ary 3-cube adaptive1 uniform 6e-2 ok 403156d26ec5c7d6 4021e668dbab0c41 401a16ce9da58664 3ffddea5986e01c2 40306ef4258d73d4 4031626a58d565a2 3fb01aeb45924c92
4-ary 3-cube adaptive1 uniform 1e-1 ok 405fa364a918c9cb 4022fe35bfddca9d 405ccc235abb5870 3ffddea5986e01c2 405f60fc8284dcce 405fa6b6ab0695a4 3fc44128576af328
4-ary 3-cube adaptive1 uniform 2e-1 saturated Channel 4015262bd438f60b None
4-ary 3-cube adaptive1 uniform 5e-1 saturated Channel 4031f3b409bdb242 None
4-ary 3-cube adaptive1 hotspot 1e-5 ok 40247071ef00c254 4020b4655b20fb42 3f3bf069036d3c09 3ffddea5986e01c2 4022a62806be8a51 4024873b470d2efb 3e10c7e411aa64a9
4-ary 3-cube adaptive1 hotspot 3e-5 ok 40247139c6413bed 4020b4bd61422d2b 3f54f63e29d14107 3ffddea5986e01c2 4022a6b17bc73b3f 402487c4bc15dfe8 3e49d696c3be3b0b
4-ary 3-cube adaptive1 hotspot 1e-4 ok 402473f5da617019 4020b5f176b65bdc 3f717d84eaa02729 3ffddea5986e01c2 4022a89338243110 402489a67872d5ba 3e894f5aa0a59ce6
4-ary 3-cube adaptive1 hotspot 3e-4 ok 40247bcb8b933ecc 4020b961b4025183 3f8a54920cb444ff 3ffddea5986e01c2 4022adf913282684 40248f0c5376cb2d 3ec37c759b705430
4-ary 3-cube adaptive1 hotspot 1e-3 ok 40249777fc9fbe40 4020c56a8a94ae9b 3fa638befd4f6d7d 3ffddea5986e01c2 4022c11e168bacde 4024a23156da54bd 3f03150e9b3ce226
4-ary 3-cube adaptive1 hotspot 2e-3 ok 4024bfb2ac4592ca 4020d69bbeb8b722 3fb6a11d3f8db80b 3ffddea5986e01c2 4022dd2995a422ae 4024be3cd5f360ad 3f273bafdcbd8caa
4-ary 3-cube adaptive1 hotspot 4e-3 ok 402512b9330b4fb5 4020f8fe7c2219f2 3fc77980f6dd62b5 3ffddea5986e01c2 402317d16632cf74 4024f8e4a69e34a2 3f4c27953ca4773b
4-ary 3-cube adaptive1 hotspot 7e-3 ok 40259632acc391b5 40212c9ae430caf6 3fd5b862b0a0d0de 3ffddea5986e01c2 402376b48314a2aa 402557c7c5f5a444 3f68d24f9ea2a887
4-ary 3-cube adaptive1 hotspot 1.2e-2 ok 4026871781b30910 4021835fb2b2e7d5 3fe47e31bf261033 3ffddea5986e01c2 402429dea4bfc3c9 40260af219da30c6 3f840ef870513c56
4-ary 3-cube adaptive1 hotspot 2e-2 saturated Channel 4013942c1e70edad None
4-ary 3-cube adaptive1 hotspot 3.5e-2 saturated Channel 402432ee0c8c73f7 None
4-ary 3-cube adaptive1 hotspot 6e-2 saturated Channel 4034abae02d66705 None
4-ary 3-cube adaptive1 hotspot 1e-1 saturated Channel 4040d281feef7ab8 None
4-ary 3-cube adaptive1 hotspot 2e-1 saturated Channel 4059642b1f9eae25 None
4-ary 3-cube adaptive1 hotspot 5e-1 saturated Channel 40699b6074593560 None
4-ary 3-cube adaptive2 uniform 1e-5 ok 40247052b2b096d9 4020b4461fcc5c90 3f3befeb3d0847dd 3ffddea5986e01c2 4022a627fb8a432c 4024873b3bd8e7d5 3d30000005a95294
4-ary 3-cube adaptive2 uniform 3e-5 ok 402470dc0b6abac9 4020b45faf445115 3f54f523152f75ba 3ffddea5986e01c2 4022a6b15444671c 402487c494930bc4 3d3000035b1d3304
4-ary 3-cube adaptive2 uniform 1e-4 ok 402472bd26ad7439 4020b4b9256828e4 3f717a71bc58ea9e 3ffddea5986e01c2 4022a8926f87208c 402489a5afd5c536 3d3003385a992b51
4-ary 3-cube adaptive2 uniform 3e-4 ok 4024781f1f5a2530 4020b5b8c017b614 3f8a46b0d2bb907b 3ffddea5986e01c2 4022adf46833d183 40248f07a882762c 3d31e8a6d9bdb1e2
4-ary 3-cube adaptive2 uniform 1e-3 ok 40248b1dd619b927 4020b9375d7e2437 3fa611c58dd4b82b 3ffddea5986e01c2 4022c0f31ef36579 4024a2065f420a23 3d7e4e1743281886
4-ary 3-cube adaptive2 uniform 2e-3 ok 4024a6adf73849c6 4020be3562ebe61f 3fb651f09f51b766 3ffddea5986e01c2 4022dc834011f61a 4024bd9680609ac3 3dc5ce0837389600
4-ary 3-cube adaptive2 uniform 4e-3 ok 4024df5e504d92ef 4020c8316dc769f3 3fc6d60bde1a30f8 3ffddea5986e01c2 4023153399273f42 4024f646d975e3eb 3e102dbd6ad6679c
4-ary 3-cube adaptive2 uniform 7e-3 ok 4025388b95d1a0db 4020d72b7e10afae 3fd4b16c96661ead 3ffddea5986e01c2 40236e60deab4d2e 40254f741ef9f1d7 3e4a1cf949d8fce4
4-ary 3-cube adaptive2 uniform 1.2e-2 ok 4025d965590da462 4020f02199357942 3fe2d6f0cca6ae82 3ffddea5986e01c2 40240f3aa1e750b0 4025f04de235f55f 3e832de54b5b259c
4-ary 3-cube adaptive2 uniform 2e-2 ok 4027006e508b148d 40211811c4a38d13 3ff1643ec6ce3a0e 3ffddea5986e01c2 402536439964bd11 40271756d9b365ba 3eb8c4d1080616cc
4-ary 3-cube adaptive2 uniform 3.5e-2 ok 4029d7a88f7ac0de 402162f41617b228 4002e37f195539f6 3ffddea5986e01c2 40280d7dd84f91f5 4029ee9118a35002 3ef3fd11e814231f
4-ary 3-cube adaptive2 uniform 6e-2 ok 40314ae5dd390396 4021dfc2a435ad4e 4019f468c65d334a 3ffddea5986e01c2 403065d07ef5bab7 4031565a21ef9408 3f2d55a579ede870
4-ary 3-cube adaptive2 uniform 1e-1 ok 4057706ff68415f6 4022a7794327ffd2 4054a40637bd5df5 3ffddea5986e01c2 4057372a044bf39b 4057734d0f6d4ae2 3f62c37db12dbc8c
4-ary 3-cube adaptive2 uniform 2e-1 saturated InjectionQueue 400096b09a70698f None
4-ary 3-cube adaptive2 uniform 5e-1 saturated Channel 401a3aadfa9d1bcf None
4-ary 3-cube adaptive2 hotspot 1e-5 ok 40247071ef00c254 4020b4655b20fb42 3f3bf069036d3c09 3ffddea5986e01c2 4022a62806be8a51 4024873b470d2efb 3d300002ce4e49b2
4-ary 3-cube adaptive2 hotspot 3e-5 ok 40247139c6413bed 4020b4bd61422d2b 3f54f63e29d14107 3ffddea5986e01c2 4022a6b17bc73b3f 402487c4bc15dfe8 3d3001a9ca29bf1c
4-ary 3-cube adaptive2 hotspot 1e-4 ok 402473f5da617018 4020b5f176b65bdb 3f717d84eaa02728 3ffddea5986e01c2 4022a89338243110 402489a67872d5ba 3d31988fe2573d26
4-ary 3-cube adaptive2 hotspot 3e-4 ok 40247bcb8b933c3d 4020b961b4024ef6 3f8a54920cb43b53 3ffddea5986e01c2 4022adf913282682 40248f0c5376cb2b 3d7022ede199d013
4-ary 3-cube adaptive2 hotspot 1e-3 ok 40249777fc97161b 4020c56a8a8c21d4 3fa638befd340f7f 3ffddea5986e01c2 4022c11e168b90e8 4024a23156da3590 3ded0e4ba4cd0104
4-ary 3-cube adaptive2 hotspot 2e-3 ok 4024bfb2aa89b903 4020d69bbd07e15b 3fb6a11d3a0bb7cc 3ffddea5986e01c2 4022dd2995990249 4024be3cd5e7a6f3 3e3595354ca1b778
4-ary 3-cube adaptive2 hotspot 4e-3 ok 402512b8d42760e4 4020f8fe21ff6095 3fc7797fc69005c6 3ffddea5986e01c2 402317d1616c46f0 4024f8e4a1baeb9a 3e8009289def6358
4-ary 3-cube adaptive2 hotspot 7e-3 ok 402596289d1b2f86 40212c91b972e2c7 3fd5b846135190d9 3ffddea5986e01c2 402376b39db03d62 402557c6ddfee20a 3eb9e2147ce4cbb6
4-ary 3-cube adaptive2 hotspot 1.2e-2 ok 40268617bd6b66a4 40218287b63f62e7 3fe47bb541e4384a 3ffddea5986e01c2 402429b6d324ba62 40260aca13735f10 3ef300d060d55acd
4-ary 3-cube adaptive2 hotspot 2e-2 saturated Channel 3ff2ef911cf355cf None
4-ary 3-cube adaptive2 hotspot 3.5e-2 saturated Channel 40177ea8a363f7ef None
4-ary 3-cube adaptive2 hotspot 6e-2 saturated Channel 40295f1740a47fc1 None
4-ary 3-cube adaptive2 hotspot 1e-1 saturated Channel 403bf7a6c4b2cc67 None
4-ary 3-cube adaptive2 hotspot 2e-1 saturated Channel 4054e12da630c542 None
4-ary 3-cube adaptive2 hotspot 5e-1 saturated Channel 40598eeff3bc529d None
3-ary 2-cube deterministic uniform 1e-5 ok 4022d2bbd1c6a89a 4020b44eb22e3702 3f3bf00dc2039f9e 3ff0f1a9fbe76c8c 40224d1174a44b16 4022ff49f0d21d1c -
3-ary 2-cube deterministic uniform 3e-5 ok 4022d35651bbb7f6 4020b47966b89372 3f54f570c6de5d60 3ff0f1a9fbe76c8c 40224d9acf86f287 4022ffea27cd4f1c -
3-ary 2-cube deterministic uniform 1e-4 ok 4022d5738a8db830 4020b50ee1d73b2e 3f717b49cc7b8939 3ff0f1a9fbe76c8c 40224f7c035e22d5 4023021b62483f4e -
3-ary 2-cube deterministic uniform 3e-4 ok 4022db81f3b385dc 4020b6ba142483a1 3f8a4a804852a5ff 3ff0f1a9fbe76c8c 402254ded4e6353c 40230862fdf7f610 -
3-ary 2-cube deterministic uniform 1e-3 ok 4022f0e441210172 4020bc92873eeb7d 3fa61c7a65286458 3ff0f1a9fbe76c8c 402267e74c9fb71a 40231e8de7f6c4e6 -
3-ary 2-cube deterministic uniform 2e-3 ok 40230ff4636f9918 4020c4efb8eddeb2 3fb667b5826669ce 3ff0f1a9fbe76c8c 4022839842ad1d73 40233ebdc3b06cf8 -
3-ary 2-cube deterministic uniform 4e-3 ok 40234ff7ae8a3340 4020d5b62afa8493 3fc7031104b046f4 3ff0f1a9fbe76c8c 4022bcd12696958e 402381048686127c -
3-ary 2-cube deterministic uniform 7e-3 ok 4023b503548dad5c 4020eefe15ad0151 3fd4f9ffec77cf19 3ff0f1a9fbe76c8c 4023178ef230d8a6 4023e97f75574998 -
3-ary 2-cube deterministic uniform 1.2e-2 ok 40246c5f9de94528 40211971be20f311 3fe34b8a04b64863 3ff0f1a9fbe76c8c 4023bd6dae3d4841 4024a6b043229976 -
3-ary 2-cube deterministic uniform 2e-2 ok 4025c088d07b470c 40215e32e0aad9c4 3ff22105829bfdb8 3ff0f1a9fbe76c8c 4024f4c5e9b372bc 4026047472bde326 -
3-ary 2-cube deterministic uniform 3.5e-2 ok 40291dc3325bc4b0 4021e1ea7c7de548 4004768dd983c757 3ff0f1a9fbe76c8c 4028192b012f4185 402974a0981545bc -
3-ary 2-cube deterministic uniform 6e-2 ok 4032314fc69857ef 4022c5c99088f15c 401efd417a55a1e1 3ff0f1a9fbe76c8c 40317b7b67d88832 40326debe62d9d2d -
3-ary 2-cube deterministic uniform 1e-1 saturated InjectionQueue 3ff03a6ade6bf795 None
3-ary 2-cube deterministic uniform 2e-1 saturated Channel 3ff123769fc78d6b None
3-ary 2-cube deterministic uniform 5e-1 saturated Channel 4007c28f5c28f5c2 None
3-ary 2-cube deterministic hotspot 1e-5 ok 4022d2c095dc928a 4020b453761dbf46 3f3bf020f2d978ca 3ff0f1a9fbe76c8c 40224d11bc5c6309 4022ff4a388a96fe -
3-ary 2-cube deterministic hotspot 3e-5 ok 4022d3649f16b8f4 4020b487b2ba0679 3f54f59bf89d47a1 3ff0f1a9fbe76c8c 40224d9ba795a351 4022ffeaffdf7158 -
3-ary 2-cube deterministic hotspot 1e-4 ok 4022d5a343e81d72 4020b53e8c2d6d68 3f717bc1ee13c309 3ff0f1a9fbe76c8c 40224f7ede13749b 4023021e3d23d3b4 -
3-ary 2-cube deterministic hotspot 3e-4 ok 4022dc118e358690 4020b74927075017 3f8a4c9ec5239ade 3ff0f1a9fbe76c8c 402254e7bf98c5b5 4023086bea02f2f6 -
3-ary 2-cube deterministic hotspot 1e-3 ok 4022f2c8088d2e3c 4020be7059168243 3fa6226ff9be6707 3ff0f1a9fbe76c8c 40226809371f808e 40231eafe16ca500 -
3-ary 2-cube deterministic hotspot 2e-3 ok 402313cae3f53a4e 4020c8adf5edd0fe 3fb673d7453ddfab 3ff0f1a9fbe76c8c 402283e870093341 40233f0e2cf6ecbc -
3-ary 2-cube deterministic hotspot 4e-3 ok 402357e3378ffa84 4020dd3d171bc894 3fc71c383dd1177e 3ff0f1a9fbe76c8c 4022bda59727e694 402381d9e7518652 -
3-ary 2-cube deterministic hotspot 7e-3 ok 4023c390c275ce06 4020fc45d6cb60fb 3fd522b585afef42 3ff0f1a9fbe76c8c 40231998516901bf 4023eb8bb6d93212 -
3-ary 2-cube deterministic hotspot 1.2e-2 ok 402487919a46e392 40213085ded1279f 3fe38d67bf8ce60e 3ff0f1a9fbe76c8c 4023c2db04f11b6a 4024ac262032efe2 -
3-ary 2-cube deterministic hotspot 2e-2 ok 4025f55989f7cd72 4021858362efb401 3ff28d073c595efc 3ff0f1a9fbe76c8c 40250475434b23bb 4026143bb2e30720 -
3-ary 2-cube deterministic hotspot 3.5e-2 ok 4029a0e823b1d19e 4022299ac388925e 4005646082b146bb 3ff0f1a9fbe76c8c 4028587227a2a9d5 4029b43234ad22b4 -
3-ary 2-cube deterministic hotspot 6e-2 ok 403344b026990180 4023496cd0437ee3 402121be3d71968b 3ff0f1a9fbe76c8c 40325050db8bf242 40334331dd361bc4 -
3-ary 2-cube deterministic hotspot 1e-1 saturated Channel 3ff6b52cf2fd3826 None
3-ary 2-cube deterministic hotspot 2e-1 saturated Channel 400705532617c1bf None
3-ary 2-cube deterministic hotspot 5e-1 saturated Channel 401cc6a7ef9db22c None
3-ary 2-cube adaptive1 uniform 1e-5 ok 4022d2b33f1fc432 4020b4461fcc5c90 3f3befeb3d0847dd 3ff0f1a9fbe76c8c 40224d11745f4120 4022ff3e82b54538 3e87869438e227a6
3-ary 2-cube adaptive1 uniform 3e-5 ok 4022d33c97d9e822 4020b45faf445115 3f54f523152f75ba 3ff0f1a9fbe76c8c 40224d9acd196510 4022ffc7db6f6928 3eae8f8c866b3063
3-ary 2-cube adaptive1 uniform 1e-4 ok 4022d51db31ca19e 4020b4b9256828f0 3f717a71bc58eabd 3ff0f1a9fbe76c8c 40224f7be85c1e81 402301a8f6b222a8 3ed73f889d744a22
3-ary 2-cube adaptive1 uniform 3e-4 ok 4022da7fabc95622 4020b5b8c017b9a9 3f8a46b0d2bb9e11 3ff0f1a9fbe76c8c 402254dde108cf7b 4023070aef5ed85a 3efe32ffcd233772
3-ary 2-cube adaptive1 uniform 1e-3 ok 4022ed7e628aa76c 4020b9375d7fdf9c 3fa611c58dda3de4 3ff0f1a9fbe76c8c 402267dc97c868f4 40231a09a620bc3e 3f26f7e0e9d26032
3-ary 2-cube adaptive1 uniform 2e-3 ok 4023090e83c3f754 4020be356307b2a1 3fb651f09fab9104 3ff0f1a9fbe76c8c 4022836cb8e7a7c1 40233599c762bc86 3f403bb480ff2e6a
3-ary 2-cube adaptive1 uniform 4e-3 ok 402341bede932c46 4020c8316f869de6 3fc6d60be3e83395 3ff0f1a9fbe76c8c 4022bc1d12137540 40236e4a22bdbe9c 3f56ed157deb25e8
3-ary 2-cube adaptive1 uniform 7e-3 ok 40239aec344f8b90 4020d72b8e8f0b8f 3fd4b16cc8724dd2 3ff0f1a9fbe76c8c 4023154a5910ac9c 4023c7777d64808a 3f6a76e1a69938ef
3-ary 2-cube adaptive1 uniform 1.2e-2 ok 40243bc68e4258ae 4020f02228d42a42 3fe2d6f25f140db0 3ff0f1a9fbe76c8c 4023b62433e32496 4024685201b76a0c 3f7d85bdf3b916d2
3-ary 2-cube adaptive1 uniform 2e-2 ok 402562d4ac391702 402118162122cf8e 3ff1644a5ccacf16 3ff0f1a9fbe76c8c 4024dd2e84f94ce8 40258f6163f9050a 3f8f5f65a190d894
3-ary 2-cube adaptive1 uniform 3.5e-2 ok 40283a519abdeb4a 4021631d039122f0 4002e3fd5ebf6b25 3ff0f1a9fbe76c8c 4027b486e27e2a78 402866ea82d32b90 3fa1a1883ecef346
3-ary 2-cube adaptive1 uniform 6e-2 ok 40307e7fb53b3d69 4021e11b7b428e3f 4019fb5d5f6dfe02 3ff0f1a9fbe76c8c 40303b02611e9f3b 403094fed144c778 3fb29ef9c5cc46fc
3-ary 2-cube adaptive1 uniform 1e-1 ok 4057efca79056780 4022b116293e0fcb 405555e10bee07d5 3ff0f1a9fbe76c8c 4057dde1e9639952 4057f5c2a8e60190 3fc1e605f8345a02
3-ary 2-cube adaptive1 uniform 2e-1 saturated InjectionQueue 4000dc4c753907ad None
3-ary 2-cube adaptive1 uniform 5e-1 saturated Channel 4001a9fbe76c8b44 None
3-ary 2-cube adaptive1 hotspot 1e-5 ok 4022d2b6a8601f96 4020b44988f13f83 3f3beff8f940f2ab 3ff0f1a9fbe76c8c 40224d11bc0c6fd8 4022ff3eca6273f0 3e8e336a4ceaebea
3-ary 2-cube adaptive1 hotspot 3e-5 ok 4022d346d43fde36 4020b469eab2f9ed 3f54f541fed6d63d 3ff0f1a9fbe76c8c 40224d9ba4c5d51e 4022ffc8b31bd936 3eb39db117097142
3-ary 2-cube adaptive1 hotspot 1e-4 ok 4022d53fd94bea80 4020b4db40d90682 3f717ac7afb36324 3ff0f1a9fbe76c8c 40224f7ebecba88f 402301abcd21acb6 3eddd82d45e7abc4
3-ary 2-cube adaptive1 hotspot 3e-4 ok 4022dae65f116564 4020b61f126a5994 3f8a4834a878fb95 3ff0f1a9fbe76c8c 402254e6a5119b0d 40230713b367a3ec 3f03622aff40a683
3-ary 2-cube adaptive1 hotspot 1e-3 ok 4022eed7b4ad005c 4020ba8c6fec27f5 3fa6160543ead494 3ff0f1a9fbe76c8c 402267fccc69acfc 40231a29dac20054 3f2d7b16d2193612
3-ary 2-cube adaptive1 hotspot 2e-3 ok 40230bc9e44b0786 4020c0df88138b76 3fb65a8e5d473f89 3ff0f1a9fbe76c8c 402283b5de394601 402335e2ecb45c76 3f44d49165758898
3-ary 2-cube adaptive1 hotspot 4e-3 ok 4023475a117fcc3e 4020cd85bcde4283 3fc6e7c549270a7a 3ff0f1a9fbe76c8c 4022bcd3cb553e60 40236f00dbffbe10 3f5d6556475014de
3-ary 2-cube adaptive1 hotspot 7e-3 ok 4023a5229b01df74 4020e07f32bc1ddf 3fd4cdc5191a8058 3ff0f1a9fbe76c8c 402316f0ce045648 4023c91df25ba8da 3f70f09fd9eca467
3-ary 2-cube adaptive1 hotspot 1.2e-2 ok 40244e939f6f8432 402100203c4643d5 3fe303e23ac52cad 3ff0f1a9fbe76c8c 4023ba42aca49fd4 40246c707aacc50c 3f82d5af4adaea8a
3-ary 2-cube adaptive1 hotspot 2e-2 ok 4025866b5ef6c7ee 402132c50f8c9aae 3ff1ab887f69fd6d 3ff0f1a9fbe76c8c 4024e8456bad3789 40259a784d471432 3f93e262b7d53c1a
3-ary 2-cube adaptive1 hotspot 3.5e-2 ok 40288deaa0b3e1f0 402192171b27c711 40037679183cb535 3ff0f1a9fbe76c8c 4027dcf84d058573 40288f5c176300f8 3fa607c361d2dca1
3-ary 2-cube adaptive1 hotspot 6e-2 ok 403115ef01abbd66 402233de696642ac 401bb394b4e8951d 3ff0f1a9fbe76c8c 4030ac56ea0d4c42 4031065481b6ecdc 3fb6b10a4d8f700a
3-ary 2-cube adaptive1 hotspot 1e-1 saturated Channel 3ff0f51ac9afe1dc None
3-ary 2-cube adaptive1 hotspot 2e-1 saturated Channel 4000f51ac9afe1dc None
3-ary 2-cube adaptive1 hotspot 5e-1 saturated Channel 4015b0a941b9babb None
3-ary 2-cube adaptive2 uniform 1e-5 ok 4022d2b33f1fc432 4020b4461fcc5c90 3f3befeb3d0847dd 3ff0f1a9fbe76c8c 40224d11745f4120 4022ff3e82b54538 3d3114baaea30ea7
3-ary 2-cube adaptive2 uniform 3e-5 ok 4022d33c97d9e822 4020b45faf445115 3f54f523152f75ba 3ff0f1a9fbe76c8c 40224d9acd196510 4022ffc7db6f6928 3d4697d835994114
3-ary 2-cube adaptive2 uniform 1e-4 ok 4022d51db31ca194 4020b4b9256828e5 3f717a71bc58eaa1 3ff0f1a9fbe76c8c 40224f7be85c1e81 402301a8f6b22298 3d9123e4e8b2ef57
3-ary 2-cube adaptive2 uniform 3e-4 ok 4022da7fabc9528a 4020b5b8c017b614 3f8a46b0d2bb907b 3ff0f1a9fbe76c8c 402254dde108cf77 4023070aef5ed390 3ddc849248894880
3-ary 2-cube adaptive2 uniform 1e-3 ok 4022ed7e6288e680 4020b9375d7e2437 3fa611c58dd4b82b 3ff0f1a9fbe76c8c 402267dc97c8636e 40231a09a61e6786 3e307e9d880f5df8
3-ary 2-cube adaptive2 uniform 2e-3 ok 4023090e83a77720 4020be3562ebe620 3fb651f09f51b76a 3ff0f1a9fbe76c8c 4022836cb8e6f40e 40233599c73cf826 3e607e8f71be08d6
3-ary 2-cube adaptive2 uniform 4e-3 ok 402341bedcbcc04a 4020c8316dc769f4 3fc6d60bde1a30fc 3ff0f1a9fbe76c8c 4022bc1d11fc3d36 40236e4a20524150 3e907e8cff336b1a
3-ary 2-cube adaptive2 uniform 7e-3 ok 40239aec2240ce68 4020d72b7e10afdd 3fd4b16c96661f3c 3ff0f1a9fbe76c8c 4023154a57804b27 4023c77765d64f7e 3eb61989fc5e68b8
3-ary 2-cube adaptive2 uniform 1.2e-2 ok 40243bc5e57cdb48 4020f02199358162 3fe2d6f0cca6c546 3ff0f1a9fbe76c8c 4023b6241abc500f 4024685129125f04 3edbd56a8e4eff18
3-ary 2-cube adaptive2 uniform 2e-2 ok 402562cedcfbd1a2 40211811c4a4b929 3ff1643ec6d1573c 3ff0f1a9fbe76c8c 4024dd2d123a1ded 40258f5a2091b834 3f001b34f16379c2
3-ary 2-cube adaptive2 uniform 3.5e-2 ok 40283a091c52e478 402162f41652f420 4002e37f1a0c0b1b 3ff0f1a9fbe76c8c 4027b46751515276 402866945ffe1524 3f25923c12e6e710
3-ary 2-cube adaptive2 uniform 6e-2 ok 40307c162e95ab14 4021dfc2aa6f524e 4019f468e67e2c8f 3ff0f1a9fbe76c8c 4030394542e2aade 4030925bd27c007b 3f4b1d4b0b5e6898
3-ary 2-cube adaptive2 uniform 1e-1 ok 40573c79ea84056b 4022a7759c5d7149 4054a3c48f08b990 3ff0f1a9fbe76c8c 40572bc56c7e4b0d 4057420b69db438b 3f6f1a7dbdd8b16d
3-ary 2-cube adaptive2 uniform 2e-1 saturated InjectionQueue 40007cf56d1d2ad8 None
3-ary 2-cube adaptive2 uniform 5e-1 saturated Channel 4001a9fbe76c8b44 None
3-ary 2-cube adaptive2 hotspot 1e-5 ok 4022d2b6a8601f96 4020b44988f13f83 3f3beff8f940f2ab 3ff0f1a9fbe76c8c 40224d11bc0c6fd8 4022ff3eca6273f0 3d322f15c1b31b67
3-ary 2-cube adaptive2 hotspot 3e-5 ok 4022d346d43fde36 4020b469eab2f9ed 3f54f541fed6d63d 3ff0f1a9fbe76c8c 40224d9ba4c5d51e 4022ffc8b31bd936 3d52bdd2db78e398
3-ary 2-cube adaptive2 hotspot 1e-4 ok 4022d53fd94bea5e 4020b4db40d90660 3f717ac7afb362cf 3ff0f1a9fbe76c8c 40224f7ebecba88f 402301abcd21aca8 3da12fd9f9438f45
3-ary 2-cube adaptive2 hotspot 3e-4 ok 4022dae65f115a48 4020b61f126a4e83 3f8a4834a878d1a3 3ff0f1a9fbe76c8c 402254e6a5119b02 40230713b3679f1a 3decccbfd3fee2ec
3-ary 2-cube adaptive2 hotspot 1e-3 ok 4022eed7b4a7924c 4020ba8c6fe6cb01 3fa6160543d9b92c 3ff0f1a9fbe76c8c 402267fccc699be0 40231a29dabf9ff8 3e40a982cf40e52a
3-ary 2-cube adaptive2 hotspot 2e-3 ok 40230bc9e3f28126 4020c0df87bd33b5 3fb65a8e5c2fef83 3ff0f1a9fbe76c8c 402283b5de371761 402335e2ec8d1b78 3e70a97b6bf9ee50
3-ary 2-cube adaptive2 hotspot 4e-3 ok 4023475a0bc2f040 4020cd85b76a052b 3fc6e7c536ff60b7 3ff0f1a9fbe76c8c 4022bcd3cb0c9fb9 40236f00d962a3d2 3ea0a97771c37038
3-ary 2-cube adaptive2 hotspot 7e-3 ok 4023a5226245715c 4020e07efeed424b 3fd4cdc47b682fd3 3ff0f1a9fbe76c8c 402316f0c916c3c4 4023c91dd76cc81a 3ec652fa311db77b
3-ary 2-cube adaptive2 hotspot 1.2e-2 ok 40244e91894c04c0 4021001e761dda23 3fe303dd3b13d0a8 3ff0f1a9fbe76c8c 4023ba425ca98a13 40246c6f6aff990c 3eec1d5dd267d6be
3-ary 2-cube adaptive2 hotspot 2e-2 ok 40258658deb59262 402132b734e6c2f6 3ff1ab63528f0ece 3ff0f1a9fbe76c8c 4024e840c611d9b5 40259a6dd4697500 3f1043d1806a425d
3-ary 2-cube adaptive2 hotspot 3.5e-2 ok 40288d032675a722 402191959f9fb505 400374e11d641230 3ff0f1a9fbe76c8c 4027dc924e4f5cb2 40288ebf5cfc7ee4 3f35c109e2278b4b
3-ary 2-cube adaptive2 hotspot 6e-2 ok 40310e285d10834d 40222fb41b84bf9b 401b9ccebe3eb2da 3ff0f1a9fbe76c8c 4030a6a56c62d3b2 4030ffbbfc0ba8b2 3f5b29cf80f148d6
3-ary 2-cube adaptive2 hotspot 1e-1 saturated Channel 3ff0f51ac9afe1dc None
3-ary 2-cube adaptive2 hotspot 2e-1 saturated Channel 4000f51ac9afe1dc None
3-ary 2-cube adaptive2 hotspot 5e-1 saturated Channel 401532617c1bda52 None
5-ary 2-cube deterministic uniform 1e-5 ok 4023de1de2c04485 4020b46d2cb1505e 3f3bf08880383307 3ff94bc6a7ef9db5 4022d2c04490118a 40241397026381ea -
5-ary 2-cube deterministic uniform 3e-5 ok 4023def562160216 4020b4d4d8ef7dcd 3f54f6851212402f 3ff94bc6a7ef9db5 4022d363b002a5c6 40241478ec19e159 -
5-ary 2-cube deterministic uniform 1e-4 ok 4023e1e8717240d1 4020b63fd3254673 3f717e4a783538cd 3ff94bc6a7ef9db5 4022d5a05f4e8e38 402417907512fe22 -
5-ary 2-cube deterministic uniform 3e-4 ok 4023ea5ccde6ec2c 4020ba4df43fd3e6 3f8a5812a4923aed 3ff94bc6a7ef9db5 4022dc0ac63e42b4 4024206d35d57477 -
5-ary 2-cube deterministic uniform 1e-3 ok 402408474fc830bb 4020c88bb613f492 3fa642c4b6487261 3ff94bc6a7ef9db5 4022f2c809644ff2 40243fc72aa8f74a -
5-ary 2-cube deterministic uniform 2e-3 ok 402433ea3e9b07fc 4020dd055cb15831 3fb6b60675de09de 3ff94bc6a7ef9db5 4023140e157d7b02 40246d7cad3a8a94 -
5-ary 2-cube deterministic uniform 4e-3 ok 40248e84fd62aa08 40210670322648ae 3fc7a6fd8f9b68dd 3ff94bc6a7ef9db5 40235989d5c6e41a 4024cc50d21b6b37 -
5-ary 2-cube deterministic uniform 7e-3 ok 40251f74526fc065 402145c1bb217c66 3fd607384a0a08f3 3ff94bc6a7ef9db5 4023c9c75320a264 402563ca1f192ccc -
5-ary 2-cube deterministic uniform 1.2e-2 ok 40262cb56d2aa081 4021b2957a7706ba 3fe50a71db5a60f8 3ff94bc6a7ef9db5 40249dba088b4122 40267c814e174d2c -
5-ary 2-cube deterministic uniform 2e-2 ok 40283736b70fbdd1 402269cab5aa6840 3ff51f99633b0ecc 3ff94bc6a7ef9db5 402644b8519c6fc2 40289ae99826cd6c -
5-ary 2-cube deterministic uniform 3.5e-2 ok 402dfe9b64e005ea 4023e2c3cd488731 400bc97b0a662c08 3ff94bc6a7ef9db5 402b3453973e2504 402e8d768e006618 -
5-ary 2-cube deterministic uniform 6e-2 ok 403defe7620e0fd9 4026cbf82c4920a0 4030f52ee16a85ae 3ff94bc6a7ef9db5 403ba2d145fdd1d7 403e65b89ade1c40 -
5-ary 2-cube deterministic uniform 1e-1 saturated Channel 3ff8dead384d1481 None
5-ary 2-cube deterministic uniform 2e-1 saturated Channel 401162827667656b None
5-ary 2-cube deterministic uniform 5e-1 saturated Channel 4026466666666666 None
5-ary 2-cube deterministic hotspot 1e-5 ok 4023de362bbd031a 4020b48574ea796a 3f3bf0ea4afcfe28 3ff94bc6a7ef9db4 4022d2c09ddfb290 40241397f18433fc -
5-ary 2-cube deterministic hotspot 3e-5 ok 4023df3e473ffc10 4020b51db737fc0a 3f54f7614189fb8c 3ff94bc6a7ef9db4 4022d364c08b79f2 4024147bbe3007c8 -
5-ary 2-cube deterministic hotspot 1e-4 ok 4023e2dbe4971c84 4020b732f9a64f53 3f7180af96cbd7c4 3ff94bc6a7ef9db4 4022d5a4219afe36 4024179a131215c2 -
5-ary 2-cube deterministic hotspot 3e-4 ok 4023ed3b2bc97600 4020bd299b8b54ca 3f8a62ed00b5fb59 3ff94bc6a7ef9db4 4022dc17df104f76 4024208bebf94d3f -
5-ary 2-cube deterministic hotspot 1e-3 ok 402412070768250c 4020d22c8822750e 3fa661aa47bc4819 3ff94bc6a7ef9db4 4022f3099a6011ea 40244043eaa9120b -
5-ary 2-cube deterministic hotspot 2e-3 ok 402447f7b47d41b2 4020f092c651b518 3fb6f60c96cc71c5 3ff94bc6a7ef9db4 402314d3a27aed3c 40246eb9f2823ea6 -
5-ary 2-cube deterministic hotspot 4e-3 ok 4024b900ec52a8c6 40212ec58c1b092a 3fc830a2ce6af97e 3ff94bc6a7ef9db4 40235c3c14370b5a 4024cff80388f960 -
5-ary 2-cube deterministic hotspot 7e-3 ok 402570d6e555ba3e 40218fc644b256b2 3fd6f2f974adfac6 3ff94bc6a7ef9db4 4023d21b7fa884d2 40256dd9dd5338fc -
5-ary 2-cube deterministic hotspot 1.2e-2 ok 4026d0db76fc7406 40223c5b46ca5c65 3fe6b075b3423eb5 3ff94bc6a7ef9db4 4024b9c5319763ca 40269bb199091289 -
5-ary 2-cube deterministic hotspot 2e-2 saturated Channel 3ff0acd22e973822 None
5-ary 2-cube deterministic hotspot 3.5e-2 saturated Channel 40077bd7d6475337 None
5-ary 2-cube deterministic hotspot 6e-2 saturated Channel 40156d40aaeafab6 None
5-ary 2-cube deterministic hotspot 1e-1 saturated Channel 4021db0b39192644 None
5-ary 2-cube deterministic hotspot 2e-1 saturated Channel 4031db0b39192644 None
5-ary 2-cube deterministic hotspot 5e-1 saturated Channel 404651ce075f6fd3 None
5-ary 2-cube adaptive1 uniform 1e-5 ok 4023ddf6d4a0ca59 4020b4461fcc5c91 3f3befeb3d0847e3 3ff94bc6a7ef9db5 4022d2b33f1fc432 4024136abf5431fb 3e73924e7c3f1e5b
5-ary 2-cube adaptive1 uniform 3e-5 ok 4023de802d5aee49 4020b45faf445116 3f54f523152f75bd 3ff94bc6a7ef9db5 4022d33c97d9e822 402413f4180e55ea 3e9e886216c17088
5-ary 2-cube adaptive1 uniform 1e-4 ok 4023e061489da7ce 4020b4b9256828fa 3f717a71bc58ead6 3ff94bc6a7ef9db5 4022d51db31ca19a 402415d533510f72 3ecc6362f5eb6fda
5-ary 2-cube adaptive1 uniform 3e-4 ok 4023e5c3414a617f 4020b5b8c017bedc 3f8a46b0d2bbb1c4 3ff94bc6a7ef9db5 4022da7fabc9557e 40241b372bfdca4c 3ef6249f51a10a74
5-ary 2-cube adaptive1 uniform 1e-3 ok 4023f8c1f8105761 4020b9375d847abd 3fa611c58de8ed71 3ff94bc6a7ef9db5 4022ed7e628b178c 40242e35e2c49758 3f24954f44ec511c
5-ary 2-cube adaptive1 uniform 2e-3 ok 4024145219abe45f 4020be35636c10b8 3fb651f0a0eff820 3ff94bc6a7ef9db5 4023090e83d56c7e 402449c6047062c0 3f4053e00887293e
5-ary 2-cube adaptive1 uniform 4e-3 ok 40244d027ce902a7 4020c83177ebd780 3fc6d60bffcddc11 3ff94bc6a7ef9db5 402341bee0a508cc 4024827668f69b06 3f59df2f2fb23934
5-ary 2-cube adaptive1 uniform 7e-3 ok 4024a63035d8a26e 4020d72bf13bc956 3fd4b16df3dcac23 3ff94bc6a7ef9db5 40239aec53903474 4024dba42fe71ed2 3f705efa4d4cb427
5-ary 2-cube adaptive1 uniform 1.2e-2 ok 4025470ef49d749e 4020f02641f35d76 3fe2d6fddac23711 3ff94bc6a7ef9db5 40243bc843f29722 40257c837e593a83 3f83e845914b14f8
5-ary 2-cube adaptive1 uniform 2e-2 ok 40266e4ab863ce9c 4021183c034aa074 3ff164af00d9d389 3ff94bc6a7ef9db5 402562eaf8eecbe8 4026a3c44514cf25 3f96d426c88c9ad4
5-ary 2-cube adaptive1 uniform 3.5e-2 ok 402948748afca367 402164bc16d093b8 4002e8fe7cb86fe0 3ff94bc6a7ef9db5 40283c00dfd8be2e 40297e2546d09e0c 3fab79356cc78c4f
5-ary 2-cube adaptive1 uniform 6e-2 ok 40311ee238173d1b 4021effc026efae6 401a489f31831733 3ff94bc6a7ef9db5 403093d4a421a59f 40313ab1bc152834 3fbe08ba27f76d74
5-ary 2-cube adaptive1 uniform 1e-1 ok 4061f240a33fd3ad 40231c6fafc12a6c 40608de21af3e1cb 3ff94bc6a7ef9db5 4061dc984f45b3d3 4061f69580d84072 3fcc7a5dd0684417
5-ary 2-cube adaptive1 uniform 2e-1 saturated Channel 3ff81c609b4dafe4 None
5-ary 2-cube adaptive1 uniform 5e-1 saturated Channel 4019cb8b18585a10 None
5-ary 2-cube adaptive1 hotspot 1e-5 ok 4023de0233b17c4a 4020b4517e817b17 3f3bf01906be3bac 3ff94bc6a7ef9db4 4022d2b3599c38a4 4024136ad9d0a66c 3e8008f5652ddb63
5-ary 2-cube adaptive1 hotspot 3e-5 ok 4023dea24cb2b438 4020b481cb63aca6 3f54f58a227b5bc9 3ff94bc6a7ef9db4 4022d33ce974f592 402413f469a96359 3ea903fadce35c9c
5-ary 2-cube adaptive1 hotspot 1e-4 ok 4023e0d31f82155a 4020b52ad87b5adf 3f717b90463629d3 3ff94bc6a7ef9db4 4022d51edc36a778 402415d65c6b1550 3ed74223163f37a6
5-ary 2-cube adaptive1 hotspot 3e-4 ok 4023e7199dc925d4 4020b70dd951a4b2 3f8a4bbde635b08b 3ff94bc6a7ef9db4 4022da83fee892ac 40241b3b7f1d079b 3f02240b9dcc072c
5-ary 2-cube adaptive1 hotspot 1e-3 ok 4023fd4122d7acbe 4020bda85c808e46 3fa61ff1592ac161 3ff94bc6a7ef9db4 4022ed96c32e499c 40242e4e4367e1c3 3f30db4286edb6b8
5-ary 2-cube adaptive1 hotspot 2e-3 ok 40241d6d9ceeb4f6 4020c71765bff6a0 3fb66eb118654f94 3ff94bc6a7ef9db4 4023095c6e74f0f8 40244a13ef11d4b9 3f4ab79da7a02bab
5-ary 2-cube adaptive1 hotspot 4e-3 ok 40245fb3b37f3ff6 4020d9f5d76bf3b6 3fc71141c556225e 3ff94bc6a7ef9db4 402342d48b2b172c 4024838c13a3dbb2 3f651a97ebc3b565
5-ary 2-cube adaptive1 hotspot 7e-3 ok 4024c842da9d5ad2 4020f64781bcb17c 3fd510507c56b3ed 3ff94bc6a7ef9db4 40239e2ada75c696 4024dee2b88c35ed 3f7a886bdf5a81b2
5-ary 2-cube adaptive1 hotspot 1.2e-2 ok 40258600a5fec37e 402125a369327a42 3fe36e467ce55860 3ff94bc6a7ef9db4 402445b74fd009f6 402586729c7b148e 3f8fc9ba618fbfcc
5-ary 2-cube adaptive1 hotspot 2e-2 ok 4026e7817ce3afb8 402172d779b11bb3 3ff2598971a50273 3ff94bc6a7ef9db4 40258252ade01624 4026c32ca1fe231a 3fa1b1a39ba36769
5-ary 2-cube adaptive1 hotspot 3.5e-2 ok 402a8384a9b4cc5e 4022137deba53706 40051a37a4468686 3ff94bc6a7ef9db4 4028c9b7695006b2 402a0be3150f6554 3fb40c2ec83f57d9
5-ary 2-cube adaptive1 hotspot 6e-2 saturated Channel 4002a9bdda5a2fbf None
5-ary 2-cube adaptive1 hotspot 1e-1 saturated Channel 40163fceabd79d68 None
5-ary 2-cube adaptive1 hotspot 2e-1 saturated Channel 402cc1d376506b7d None
5-ary 2-cube adaptive1 hotspot 5e-1 saturated Channel 4041f6877e8464eb None
5-ary 2-cube adaptive2 uniform 1e-5 ok 4023ddf6d4a0ca59 4020b4461fcc5c91 3f3befeb3d0847e3 3ff94bc6a7ef9db5 4022d2b33f1fc432 4024136abf5431fb 3d302600b2d48898
5-ary 2-cube adaptive2 uniform 3e-5 ok 4023de802d5aee49 4020b45faf445116 3f54f523152f75bd 3ff94bc6a7ef9db5 4022d33c97d9e822 402413f4180e55ea 3d35c7dab4957a07
5-ary 2-cube adaptive2 uniform 1e-4 ok 4023e061489da7ba 4020b4b9256828e6 3f717a71bc58eaa4 3ff94bc6a7ef9db5 4022d51db31ca194 402415d533510f5b 3d74fd265a821bf0
5-ary 2-cube adaptive2 uniform 3e-4 ok 4023e5c3414a58b1 4020b5b8c017b616 3f8a46b0d2bb9083 3ff94bc6a7ef9db5 4022da7fabc9528a 40241b372bfdc051 3dc85b0cbd3c5b80
5-ary 2-cube adaptive2 uniform 1e-3 ok 4023f8c1f809eca7 4020b9375d7e2438 3fa611c58dd4b82e 3ff94bc6a7ef9db5 4022ed7e6288e680 40242e35e2bd5448 3e2507369fc8b2e2
5-ary 2-cube adaptive2 uniform 2e-3 ok 4024145219287d47 4020be3562ebe621 3fb651f09f51b76d 3ff94bc6a7ef9db5 4023090e83a77720 402449c603dbe4e9 3e5a7e480f198c6a
5-ary 2-cube adaptive2 uniform 4e-3 ok 40244d02723dc673 4020c8316dc769f8 3fc6d60bde1a3109 3ff94bc6a7ef9db5 402341bedcbcc04a 402482765cf12e15 3e90b08ebb3f81a8
5-ary 2-cube adaptive2 uniform 7e-3 ok 4024a62fb7c1d5b7 4020d72b7e10b0ec 3fd4b16c96662272 3ff94bc6a7ef9db5 40239aec2240cebe 4024dba3a2753d82 3ebaf2780852299a
5-ary 2-cube adaptive2 uniform 1.2e-2 ok 402547097afe352b 4020f0219935c8a5 3fe2d6f0cca78cf3 3ff94bc6a7ef9db5 40243bc5e57cfa14 40257c7d65b1a763 3ee44f1a3504b76e
5-ary 2-cube adaptive2 uniform 2e-2 ok 40266e12729109f8 40211811c4b3e280 3ff1643ec6f99e06 3ff94bc6a7ef9db5 402562cedd051d2c 4026a3865d469fbb 3f0bdd7a31171ca6
5-ary 2-cube adaptive2 uniform 3.5e-2 ok 4029454cba669903 402162f41b29fda2 4002e37f28fa9ea6 3ff94bc6a7ef9db5 40283a0921802d3c 40297ac0a5c7e1c4 3f367951fbce6d82
5-ary 2-cube adaptive2 uniform 6e-2 ok 403101ba6de6dd6c 4021dfc40988a036 4019f46ffa8e4dd9 3ff94bc6a7ef9db5 40307c1829e6b7c0 40311c747b807e90 3f60d772d5f97006
5-ary 2-cube adaptive2 uniform 1e-1 ok 405763b5709cfa6c 4022a7c7e38d5656 4054a98d598b912a 3ff94bc6a7ef9db5 40574245f4c04e10 40576a65562f834b 3f866e6bb0d53a62
5-ary 2-cube adaptive2 uniform 2e-1 saturated InjectionQueue 4000b35514d77003 None
5-ary 2-cube adaptive2 uniform 5e-1 saturated Channel 4011c6038d1fa254 None
5-ary 2-cube adaptive2 hotspot 1e-5 ok 4023de0233b17c4a 4020b4517e817b17 3f3bf01906be3bac 3ff94bc6a7ef9db4 4022d2b3599c38a4 4024136ad9d0a66c 3d30a74299e2d25e
5-ary 2-cube adaptive2 hotspot 3e-5 ok 4023dea24cb2b436 4020b481cb63aca4 3f54f58a227b5bc2 3ff94bc6a7ef9db4 4022d33ce974f592 402413f469a96359 3d44b89df8eb8320
5-ary 2-cube adaptive2 hotspot 1e-4 ok 4023e0d31f821494 4020b52ad87b5a18 3f717b90463627de 3ff94bc6a7ef9db4 4022d51edc36a772 402415d65c6b153a 3d963e7c5e7b2efb
5-ary 2-cube adaptive2 hotspot 3e-4 ok 4023e7199dc8ca76 4020b70dd95149a9 3f8a4bbde634575d 3ff94bc6a7ef9db4 4022da83fee88f5c 40241b3b7f1cfd23 3deac5ba32b2c5e2
5-ary 2-cube adaptive2 hotspot 1e-3 ok 4023fd4122945a4e 4020bda85c3e1025 3fa61ff158567290 3ff94bc6a7ef9db4 4022ed96c32b4e50 40242e4e435fbc19 3e4723220dee31d7
5-ary 2-cube adaptive2 hotspot 2e-3 ok 40241d6d9777f054 4020c717606bbdff 3fb66eb1071f4f1d 3ff94bc6a7ef9db4 4023095c6e26de7a 40244a13ee5b4c42 3e7d26a2ce8ef02e
5-ary 2-cube adaptive2 hotspot 4e-3 ok 40245fb33f133774 4020d9f568c71cfa 3fc711405389b102 3ff94bc6a7ef9db4 402342d481f2169e 4024838c02268469 3eb25d1c0cde37bc
5-ary 2-cube adaptive2 hotspot 7e-3 ok 4024c83d525ce3e0 4020f64275512f15 3fd5104101b822af 3ff94bc6a7ef9db4 40239e2a3782a952 4024dee1b7b7181d 3edda5e9c6b88273
5-ary 2-cube adaptive2 hotspot 1.2e-2 ok 402585c12aeed058 4021256d8a814667 3fe36dacb6f963b5 3ff94bc6a7ef9db4 402445ac1e40e100 402586639e758f88 3f0655fdad0f6795
5-ary 2-cube adaptive2 hotspot 2e-2 ok 4026e4e4d59a9f30 402170e5bee53eab 3ff254320dbb667b 3ff94bc6a7ef9db4 4025819966bb6b62 4026c250e6fd2ffc 3f2e950f8c81f11c
5-ary 2-cube adaptive2 hotspot 3.5e-2 ok 402a5cf8d6bd13d2 4021fe6f2b92aecd 4004d44358b1c537 3ff94bc6a7ef9db4 4028b79f66fb4df0 4029f856eb58548f 3f5854abcddcde4e
5-ary 2-cube adaptive2 hotspot 6e-2 saturated Channel 3ff7bd8be7296f66 None
5-ary 2-cube adaptive2 hotspot 1e-1 saturated Channel 4004fb1ef8f1a171 None
5-ary 2-cube adaptive2 hotspot 2e-1 saturated Channel 401fa9394395d8cf None
5-ary 2-cube adaptive2 hotspot 5e-1 saturated Channel 403d4c8e8fb0f1f0 None
2-ary 3-cube deterministic uniform 1e-5 ok 40230c0b3f89779d 4020b458c8bafafb 3f3bf036624dbd5e 3ff2bbd4b30dc038 40224d1174f58baa 40232bdf8bf77446 -
2-ary 3-cube deterministic uniform 3e-5 ok 40230cb9efc505f8 4020b497ab0189df 3f54f5cc38823d20 3ff2bbd4b30dc038 40224d9ad2627fa6 40232c9474aac707 -
2-ary 3-cube deterministic uniform 1e-4 ok 40230f1dec45d7e0 4020b573ccdf4772 3f717c4826c33a0c 3ff2bbd4b30dc038 40224f7c23296bcb 40232f0e38753f39 -
2-ary 3-cube deterministic uniform 3e-4 ok 402315f76a88c15a 4020b7e914d50e06 3f8a4efd47ed35a3 3ff2bbd4b30dc038 402254dff4261be0 40233625fe43dcef -
2-ary 3-cube deterministic uniform 1e-3 ok 40232e2b24f25671 4020c08771106638 3fa6291d80383272 3ff2bbd4b30dc038 402267f3efbac6e8 40234f34587b9909 -
2-ary 3-cube deterministic uniform 2e-3 ok 4023515f6da1fbc8 4020cce1e16ec6dc 3fb6817ae8be729b 3ff2bbd4b30dc038 402283cbcd79cd84 402373a2b2fe037e -
2-ary 3-cube deterministic uniform 4e-3 ok 40239a195f9bf182 4020e5bc0c06ebb8 3fc738af4cd370a1 3ff2bbd4b30dc038 4022bda79fb72235 4023bed6ff976965 -
2-ary 3-cube deterministic uniform 7e-3 ok 40240d6607b1b84f 40210b618572e4e2 3fd5513d7ba36cb0 3ff2bbd4b30dc038 40231a48deaa3593 402435eae3dda36e -
2-ary 3-cube deterministic uniform 1.2e-2 ok 4024e039fe1cc41d 40214b1fc844e407 3fe3d9f9f76280f7 3ff2bbd4b30dc038 4023c654ad680bca 40250f358b90382b -
2-ary 3-cube deterministic uniform 2e-2 ok 40266d09afc656d6 4021b3c982bf54b4 3ff30e2cb52a50db 3ff2bbd4b30dc038 4025126ad0053d20 4026a6ced5113075 -
2-ary 3-cube deterministic uniform 3.5e-2 ok 402a7d4e9bffe4e8 4022815cde651435 400691dc9ce462af 3ff2bbd4b30dc038 40289ffeb207685b 402accdbeda94f01 -
2-ary 3-cube deterministic uniform 6e-2 ok 4034e94f9dc30d22 4023f5896d43547a 4023859b37e10dc4 3ff2bbd4b30dc038 40337ef8a533a69c 403525b371daf38d -
2-ary 3-cube deterministic uniform 1e-1 saturated InjectionQueue 3ff21b672a7bb377 None
2-ary 3-cube deterministic uniform 2e-1 saturated Channel 40053162166f6a90 None
2-ary 3-cube deterministic uniform 5e-1 saturated Channel 401b277f44c118de None
2-ary 3-cube deterministic hotspot 1e-5 ok 40230c10495222ba 4020b45dd25b12fe 3f3bf04aabdaaaf7 3ff2bbd4b30dc038 40224d11c53de41d 40232bdfdc409d91 -
2-ary 3-cube deterministic hotspot 3e-5 ok 40230cc90e792e3c 4020b4a6c8485e8c 3f54f5f9e2f511a6 3ff2bbd4b30dc038 40224d9bc42f2346 40232c95667ec25c -
2-ary 3-cube deterministic hotspot 1e-4 ok 40230f50626aa74e 4020b5a63322dea9 3f717cc73084f07b 3ff2bbd4b30dc038 40224f7f54485976 40232f1169e5c662 -
2-ary 3-cube deterministic hotspot 3e-4 ok 4023168f54f77088 4020b8806fbce6d3 3f8a513b6346b80f 3ff2bbd4b30dc038 402254e9e766129b 4023362ff4629b66 -
2-ary 3-cube deterministic hotspot 1e-3 ok 4023302bd1a837f0 4020c281cb061758 3fa62f7040689089 3ff2bbd4b30dc038 402268198ee40dca 40234f5a179810db -
2-ary 3-cube deterministic hotspot 2e-3 ok 402355733ff316c7 4020d0dbdbdc4117 3fb68e66da8ed452 3ff2bbd4b30dc038 402284243e2f9b4f 402373fba3d66bcf -
2-ary 3-cube deterministic hotspot 4e-3 ok 4023a28eaab2653a 4020edc5598e11f3 3fc753aeb0a6d005 3ff2bbd4b30dc038 4022be90ceeac9be 4023bfc23208ae7c -
2-ary 3-cube deterministic hotspot 7e-3 ok 40241d1128c9ff95 402119aaed1d9936 3fd57d74a955caf8 3ff2bbd4b30dc038 40231c85aef7661b 4024382deaa17835 -
2-ary 3-cube deterministic hotspot 1.2e-2 ok 4024fdf0bd95fdf8 40216445fa62511c 3fe42302cd1f4d55 3ff2bbd4b30dc038 4023cc5ccfb0e6b6 402515502e5c304b -
2-ary 3-cube deterministic hotspot 2e-2 ok 4026a85158025042 4021df8c3b9eeea2 3ff38a54300d4cc9 3ff2bbd4b30dc038 40252461b7975edc 4026b8fa3f6bcd17 -
2-ary 3-cube deterministic hotspot 3.5e-2 ok 402b1ab0d00614a1 4022d4944c53a2b6 4007ba87b542e78e 3ff2bbd4b30dc038 4028ee70ea7d1d7f 402b1bf5b589e566 -
2-ary 3-cube deterministic hotspot 6e-2 saturated Channel 3ff822dba7a14eda None
2-ary 3-cube deterministic hotspot 1e-1 saturated Channel 400805fd8cf8a0eb None
2-ary 3-cube deterministic hotspot 2e-1 saturated Channel 40182ad51be94be6 None
2-ary 3-cube deterministic hotspot 5e-1 saturated Channel 402e358a62e39ede None
2-ary 3-cube adaptive1 uniform 1e-5 ok 40230bf896048ea8 4020b4461fcc5c90 3f3befeb3d0847dd 3ff2bbd4b30dc038 40224d11745f4120 40232bc9c64ac63f 3e64fd80b5350610
2-ary 3-cube adaptive1 uniform 3e-5 ok 40230c81eebeb298 4020b45faf445115 3f54f523152f75ba 3ff2bbd4b30dc038 40224d9acd196510 40232c531f04ea2f 3e91409be0a9a519
2-ary 3-cube adaptive1 uniform 1e-4 ok 40230e630a016c0c 4020b4b9256828e8 3f717a71bc58eaa8 3ff2bbd4b30dc038 40224f7be85c1e81 40232e343a47a3a4 3ec0fcb77ba453bd
2-ary 3-cube adaptive1 uniform 3e-4 ok 402313c502ae1eac 4020b5b8c017b7bf 3f8a46b0d2bb96cf 3ff2bbd4b30dc038 402254dde108cf79 4023339632f4568a 3eebec7fc0ca4da4
2-ary 3-cube adaptive1 uniform 1e-3 ok 402326c3b96f0f08 4020b9375d7f7dfa 3fa611c58dd90699 3ff2bbd4b30dc038 402267dc97c867bd 40234694e9b5803f 3f1b7d87bc3987de
2-ary 3-cube adaptive1 uniform 2e-3 ok 40234253daaa2e37 4020be3563091614 3fb651f09fb00de1 3ff2bbd4b30dc038 4022836cb8e7b0bb 402362250af54322 3f368ac4bcfb7eb2
2-ary 3-cube adaptive1 uniform 4e-3 ok 40237b04363aa7f7 4020c831703fb316 3fc6d60be64f367f 3ff2bbd4b30dc038 4022bc1d121d114c 40239ad566ea4114 3f52779bf412b8a0
2-ary 3-cube adaptive1 uniform 7e-3 ok 4023d4319999722e 4020d72b9bb4fbca 3fd4b16cf057cb9a 3ff2bbd4b30dc038 4023154a5a4fd88a 4023f402ced0611f 3f68065eaf6f50a0
2-ary 3-cube adaptive1 uniform 1.2e-2 ok 4024750cb9c5de6d 4020f022ddc32f3d 3fe2d6f45a0f728c 3ff2bbd4b30dc038 4023b6245392dae4 402494de2023b459 3f7e08e58a7cfe36
2-ary 3-cube adaptive1 uniform 2e-2 ok 40259c2469e7014b 4021181df01fbe29 3ff1645f1b2c58d9 3ff2bbd4b30dc038 4024dd311cc57e20 4025bbf7a16c9728 3f91b74311efc190
2-ary 3-cube adaptive1 uniform 3.5e-2 ok 4028744848cd5aad 40216381207e85c0 4002e53247b47397 3ff2bbd4b30dc038 4027b4d41cbb6c95 40289430fad057b1 3fa61636ca157d6a
2-ary 3-cube adaptive1 uniform 6e-2 ok 4030a273d2a67699 4021e530255a8140 401a1079d32167d6 3ff2bbd4b30dc038 403040497e0b79b0 4030b2d03615a0bf 3fb9228a80942a3c
2-ary 3-cube adaptive1 uniform 1e-1 ok 405aa1cc12415a7d 4022d14bc7b00b73 4057fcb3467f220e 3ff2bbd4b30dc038 405a84b423f4b38b 405aa6a564a37651 3fc8de86abf42d25
2-ary 3-cube adaptive1 uniform 2e-1 saturated InjectionQueue 400230e7d6db1769 None
2-ary 3-cube adaptive1 uniform 5e-1 saturated Channel 400e3e7db1a5ecf2 None
2-ary 3-cube adaptive1 hotspot 1e-5 ok 40230bfb8746e639 4020b44910f70202 3f3beff716180297 3ff2bbd4b30dc038 40224d11c496b898 40232bca16823db7 3e69e8cc2394f75c
2-ary 3-cube adaptive1 hotspot 3e-5 ok 40230c8ac313f4e0 4020b46882c4416a 3f54f53dbf6de07d 3ff2bbd4b30dc038 40224d9bbe4e070c 40232c5410398c2b 3e954ba73eac8e22
2-ary 3-cube adaptive1 hotspot 1e-4 ok 40230e807ef05da8 4020b4d691129f5e 3f717abbe0321424 3ff2bbd4b30dc038 40224f7f12de4f1b 40232e3764c9d43d 3ec4f7d7e867b245
2-ary 3-cube adaptive1 hotspot 3e-4 ok 4023141d99501605 4020b61103171d67 3f8a47ff5d025ac9 3ff2bbd4b30dc038 402254e798648184 4023339fea500895 3ef13bd74cb2b574
2-ary 3-cube adaptive1 hotspot 1e-3 ok 402327ed98529c83 4020ba5d922a0401 3fa6156fc6e07b12 3ff2bbd4b30dc038 402267ff8e6a85b4 402346b7e0579e42 3f20f70d3f1c5b5b
2-ary 3-cube adaptive1 hotspot 2e-3 ok 402344af21392cde 4020c081cc8385fb 3fb6595f29f76e3d 3ff2bbd4b30dc038 402283ba2ece6c82 4023627280dc00c2 3f3bd14d70e4dd52
2-ary 3-cube adaptive1 hotspot 4e-3 ok 40237fda32307ac1 4020ccca46653b57 3fc6e5555a61d8d3 3ff2bbd4b30dc038 4022bcd76991b5e1 40239b8fbe5f3583 3f56c68cf8ddd7fc
2-ary 3-cube adaptive1 hotspot 7e-3 ok 4023dd00c4fa58bc 4020df3736cf017e 3fd4c9def933e6d1 3ff2bbd4b30dc038 402316e9017656fa 4023f5a175fd6712 3f6d96f2cf998320
2-ary 3-cube adaptive1 hotspot 1.2e-2 ok 402485451e667114 4020fdef29dee0d1 3fe2fdb5e25d83bf 3ff2bbd4b30dc038 4023ba080104ca1d 402498c1ce0f8343 3f826f92bc73a2f2
2-ary 3-cube adaptive1 hotspot 2e-2 ok 4025bae24cd4c72d 40212f2b89fa89ec 3ff1a1e163c429d3 3ff2bbd4b30dc038 4024e7535e0e3a7d 4025c619ea41f5f1 3f95988b76ea9b2e
2-ary 3-cube adaptive1 hotspot 3.5e-2 ok 4028bd2f139d4d84 40218c7de3d10c2e 400364da65aa253c 3ff2bbd4b30dc038 4027d9059696ecea 4028b8630b4d34c2 3faa7b977fa7f2af
2-ary 3-cube adaptive1 hotspot 6e-2 ok 40312d5bb2b6fe04 402231141bd9483e 401ba4516665f783 3ff2bbd4b30dc038 4030a8ea572d40f8 40311b75e69cb8e3 3fbd482c1eb9b7d5
2-ary 3-cube adaptive1 hotspot 1e-1 saturated Channel 3ff28328ebb4e733 None
2-ary 3-cube adaptive1 hotspot 2e-1 saturated Channel 400c0cca9178abb1 None
2-ary 3-cube adaptive1 hotspot 5e-1 saturated Channel 40243d90d4f2e7aa None
2-ary 3-cube adaptive2 uniform 1e-5 ok 40230bf896048ea8 4020b4461fcc5c90 3f3befeb3d0847dd 3ff2bbd4b30dc038 40224d11745f4120 40232bc9c64ac63f 3d300a3ada1a5a84
2-ary 3-cube adaptive2 uniform 3e-5 ok 40230c81eebeb298 4020b45faf445115 3f54f523152f75ba 3ff2bbd4b30dc038 40224d9acd196510 40232c531f04ea2f 3d31ba4c5e79b671
2-ary 3-cube adaptive2 uniform 1e-4 ok 40230e630a016c09 4020b4b9256828e5 3f717a71bc58eaa1 3ff2bbd4b30dc038 40224f7be85c1e81 40232e343a47a3a0 3d5eccebc9da4459
2-ary 3-cube adaptive2 uniform 3e-4 ok 402313c502ae1cff 4020b5b8c017b614 3f8a46b0d2bb907b 3ff2bbd4b30dc038 402254dde108cf77 4023339632f45496 3db22af7d5868224
2-ary 3-cube adaptive2 uniform 1e-3 ok 402326c3b96db0f6 4020b9375d7e2437 3fa611c58dd4b82b 3ff2bbd4b30dc038 402267dc97c8636e 40234694e9b3e88d 3e118dd83fc1edde
2-ary 3-cube adaptive2 uniform 2e-3 ok 40234253da8c4196 4020be3562ebe620 3fb651f09f51b76a 3ff2bbd4b30dc038 4022836cb8e6f40e 402362250ad2792d 3e479ff6071f637a
2-ary 3-cube adaptive2 uniform 4e-3 ok 40237b0433a18abe 4020c8316dc769f3 3fc6d60bde1a30f8 3ff2bbd4b30dc038 4022bc1d11fc3d36 40239ad563e7c255 3e7fcbe92938409c
2-ary 3-cube adaptive2 uniform 7e-3 ok 4023d431792598d4 4020d72b7e10afd4 3fd4b16c96661f22 3ff2bbd4b30dc038 4023154a57804b26 4023f402a96bd072 3eab1317f7531b22
2-ary 3-cube adaptive2 uniform 1.2e-2 ok 4024750b3c61a8a6 4020f021993583dc 3fe2d6f0cca6cc36 3ff2bbd4b30dc038 4023b6241abc507e 402494dc6ca7e203 3ed57ae803c15310
2-ary 3-cube adaptive2 uniform 2e-2 ok 40259c1433e23d83 40211811c4a5f286 3ff1643ec6d497af 3ff2bbd4b30dc038 4024dd2d123a85fb 4025bbe56428dc1a 3efef1715f5c6410
2-ary 3-cube adaptive2 uniform 3.5e-2 ok 4028734e7440bbf2 402162f416e89778 4002e37f1bd9b1cc 3ff2bbd4b30dc038 4027b46751c4bc22 4028931fa4aabbeb 3f2a552002bc26ee
2-ary 3-cube adaptive2 uniform 6e-2 ok 403098b93afe5f99 4021dfc2e09861d3 4019f469fe054ab0 3ff2bbd4b30dc038 4030394588c47266 4030a8a1d8b2b1cc 3f54d0ae11f76248
2-ary 3-cube adaptive2 uniform 1e-1 ok 405744b866c6c38f 4022a784f3d967f0 4054a4d8757f5f90 3ff2bbd4b30dc038 40572cd952f4f10d 405748b2ea1466a5 3f7d6265f3142078
2-ary 3-cube adaptive2 uniform 2e-1 saturated InjectionQueue 40008a687fe30910 None
2-ary 3-cube adaptive2 uniform 5e-1 saturated Channel 40030fd28a197870 None
2-ary 3-cube adaptive2 hotspot 1e-5 ok 40230bfb8746e639 4020b44910f70202 3f3beff716180297 3ff2bbd4b30dc038 40224d11c496b898 40232bca16823db7 3d30123c36e7d4d0
2-ary 3-cube adaptive2 hotspot 3e-5 ok 40230c8ac313f4e0 4020b46882c4416a 3f54f53dbf6de07d 3ff2bbd4b30dc038 40224d9bbe4e070c 40232c5410398c2b 3d33146a5c456679
2-ary 3-cube adaptive2 hotspot 1e-4 ok 40230e807ef05da0 4020b4d691129f56 3f717abbe0321410 3ff2bbd4b30dc038 40224f7f12de4f1b 40232e3764c9d43a 3d69e2f0eafd1b65
2-ary 3-cube adaptive2 hotspot 3e-4 ok 4023141d99501200 4020b61103171966 3f8a47ff5d024b9b 3ff2bbd4b30dc038 402254e798648180 4023339fea50069f 3dc02b036efcd3a3
2-ary 3-cube adaptive2 hotspot 1e-3 ok 402327ed984f52c6 4020ba5d9226c4a0 3fa6156fc6d61f52 3ff2bbd4b30dc038 402267ff8e6a7b58 402346b7e0560077 3e1f4a45d1639606
2-ary 3-cube adaptive2 hotspot 2e-3 ok 402344af20f1069b 4020c081cc3d26f4 3fb6595f2913cfd1 3ff2bbd4b30dc038 402283ba2ecca546 4023627280b82a65 3e550e5c4dd623dc
2-ary 3-cube adaptive2 hotspot 4e-3 ok 40237fda2be58acf 4020ccca4069eb9e 3fc6e5554679ca82 3ff2bbd4b30dc038 4022bcd7694215a8 40239b8fbb2d9ac8 3e8c56dbf147f89b
2-ary 3-cube adaptive2 hotspot 7e-3 ok 4023dd0075fcae1c 4020df36eead140d 3fd4c9de1dbc4101 3ff2bbd4b30dc038 402316e8fa9a99cb 4023f5a14c861f17 3eb82171504a4ad9
2-ary 3-cube adaptive2 hotspot 1.2e-2 ok 402485417a240353 4020fdec111d6ae5 3fe2fdad2a4e066e 3ff2bbd4b30dc038 4023ba077583d248 402498bfc76f63d2 3ee324cf5663b308
2-ary 3-cube adaptive2 hotspot 2e-2 ok 4025babab5bac445 40212f0de1ea15b4 3ff1a191eb77b450 3ff2bbd4b30dc038 4024e7496f04abcd 4025c601c0f3041d 3f0b92705c7dca80
2-ary 3-cube adaptive2 hotspot 3.5e-2 ok 4028bad61b4d90e9 40218b2d530642af 400360b8c79658cb 3ff2bbd4b30dc038 4027d7fd2f11f9ce 4028b6b581f948f5 3f376e4688853b7c
2-ary 3-cube adaptive2 hotspot 6e-2 ok 403116622e2e0fc4 402224ba6ebfd728 401b611eae7520b1 3ff2bbd4b30dc038 4030981da9310b44 40310779f9766c63 3f625d05b45f7d2b
2-ary 3-cube adaptive2 hotspot 1e-1 ok 4061cea972609431 40231b5936d438d7 4060777c358d3524 3ff2bbd4b30dc038 4061bc4041d8ca96 4061ca2d11f897de 3f88dbc6e9e644a0
2-ary 3-cube adaptive2 hotspot 2e-1 saturated Channel 3fff16b11c6d1e12 None
2-ary 3-cube adaptive2 hotspot 5e-1 saturated Channel 401e1e6ddd0f1b41 None
8-ary 1-cube deterministic uniform 1e-5 ok 4023a4eff4213012 4020b484943a82a5 3f3bf0e6c215e0b5 3ff7819bf0c94a05 4023a4eff4213012 4023a4eff4213012 -
8-ary 1-cube deterministic uniform 3e-5 ok 4023a5f64c6a95d0 4020b51b13872ec8 3f54f75947b8db27 3ff7819bf0c94a05 4023a5f64c6a95d0 4023a5f64c6a95d0 -
8-ary 1-cube deterministic uniform 1e-4 ok 4023a98dab8ef2f3 4020b72a1a4ef58f 3f71809936a11543 3ff7819bf0c94a05 4023a98dab8ef2f3 4023a98dab8ef2f3 -
8-ary 1-cube deterministic uniform 3e-4 ok 4023b3da78c5ebd6 4020bd0e595036b9 3f8a6285722f6ea6 3ff7819bf0c94a05 4023b3da78c5ebd6 4023b3da78c5ebd6 -
8-ary 1-cube deterministic uniform 1e-3 ok 4023d85df36506fc 4020d1ca0792a9fa 3fa6606db933c10a 3ff7819bf0c94a05 4023d85df36506fc 4023d85df36506fc -
8-ary 1-cube deterministic uniform 2e-3 ok 40240dd10722e2b6 4020efb712f4adf7 3fb6f33b0a85bf0b 3ff7819bf0c94a05 40240dd10722e2b6 40240dd10722e2b6 -
8-ary 1-cube deterministic uniform 4e-3 ok 40247d862147874b 40212cace2931a28 3fc8297026d0f87b 3ff7819bf0c94a05 40247d862147874b 40247d862147874b -
8-ary 1-cube deterministic uniform 7e-3 ok 4025324cbf181057 40218afccb5b3098 3fd6e38eb476cfba 3ff7819bf0c94a05 4025324cbf181057 4025324cbf181057 -
8-ary 1-cube deterministic uniform 1.2e-2 ok 4026892fad0195e2 4022304f60e17413 3fe68acce06f88e1 3ff7819bf0c94a05 4026892fad0195e2 4026892fad0195e2 -
8-ary 1-cube deterministic uniform 2e-2 ok 40293e5daef39b9f 4023502ca5c75584 3ff7efec5898e6cc 3ff7819bf0c94a05 40293e5daef39b9f 40293e5daef39b9f -
8-ary 1-cube deterministic uniform 3.5e-2 ok 4030e6e3379afca3 4025c8964486d951 401229f9592bed6b 3ff7819bf0c94a05 4030e6e3379afca3 4030e6e3379afca3 -
8-ary 1-cube deterministic uniform 6e-2 saturated Channel 400311de5170db62 None
8-ary 1-cube deterministic uniform 1e-1 saturated Channel 4011fce632b0b27e None
8-ary 1-cube deterministic uniform 2e-1 saturated Channel 4023de4bf50873e7 None
8-ary 1-cube deterministic uniform 5e-1 saturated Channel 4039750750750750 None
8-ary 1-cube deterministic hotspot 1e-5 ok 4023a4f9380f6632 4020b48dd7de19a8 3f3bf10c11a4478d 3ff7819bf0c94a04 4023a4f1d4491aa1 4023a4f1d4491aa1 -
8-ary 1-cube deterministic hotspot 3e-5 ok 4023a6121c0e0dfa 4020b536e08a917a 3f54f7ad4a67f517 3ff7819bf0c94a04 4023a5fbeefc99b9 4023a5fbeefc99b9 -
8-ary 1-cube deterministic hotspot 1e-4 ok 4023a9ea8ca9092a 4020b786de2a58ef 3f7181832c37cdf1 3ff7819bf0c94a04 4023a9a08cba2614 4023a9a08cba2614 -
8-ary 1-cube deterministic hotspot 3e-4 ok 4023b4f29fef175e 4020be257756bbbe 3f8a66a9fcc97d6b 3ff7819bf0c94a04 4023b413f0f7ce47 4023b413f0f7ce47 -
8-ary 1-cube deterministic hotspot 1e-3 ok 4023dc15d634309e 4020d5761babdeb8 3fa66c3c6f28a5e6 3ff7819bf0c94a04 4023d9277dfe3587 4023d9277dfe3587 -
8-ary 1-cube deterministic hotspot 2e-3 ok 4024157669097b12 4020f72b70afcb32 3fb70bbd20434f9c 3ff7819bf0c94a04 40240f823713c39e 40240f823713c39e -
8-ary 1-cube deterministic hotspot 4e-3 ok 40248db70c4aee96 40213c0a54fcbd97 3fc85e4e4d41ef7a 3ff7819bf0c94a04 4024816d45862cb1 4024816d45862cb1 -
8-ary 1-cube deterministic hotspot 7e-3 ok 4025514cc19b7040 4021a724ad222190 3fd73e92cc04adfb 3ff7819bf0c94a04 40253abc6513197f 40253abc6513197f -
8-ary 1-cube deterministic hotspot 1.2e-2 ok 4026c7b34c0be51a 4022648d0a66eb93 3fe72f2c38bd0465 3ff7819bf0c94a04 40269daefeab6cfd 40269daefeab6cfd -
8-ary 1-cube deterministic hotspot 2e-2 ok 4029caec437823b2 4023b3a35df5c716 3ff938ab3b499adc 3ff7819bf0c94a04 40297a6c2418b08b 40297a6c2418b08b -
8-ary 1-cube deterministic hotspot 3.5e-2 saturated Channel 3ffc252554d07252 None
8-ary 1-cube deterministic hotspot 6e-2 saturated Channel 400ee55e726930f9 None
8-ary 1-cube deterministic hotspot 1e-1 saturated Channel 401c09de384ec474 None
8-ary 1-cube deterministic hotspot 2e-1 saturated Channel 402c34de1ec74cba None
8-ary 1-cube deterministic hotspot 5e-1 saturated Channel 4041a10ad33c8ff2 None
8-ary 1-cube adaptive1 uniform 1e-5 ok 4023a4b17dbc0aa8 4020b4461fcc6756 3f3befeb3d087340 3ff7819bf0c94a05 4023a4b17dbc0aa8 4023a4b17dbc0aa8 3f1a954c9050bb45
8-ary 1-cube adaptive1 uniform 3e-5 ok 4023a53ad67746be 4020b45faf4573e6 3f54f5231532e450 3ff7819bf0c94a05 4023a53ad67746be 4023a53ad67746be 3f33eef079e24dfe
8-ary 1-cube adaptive1 uniform 1e-4 ok 4023a71bf1e2f0ec 4020b4b925922f51 3f717a71bcc2d16e 3ff7819bf0c94a05 4023a71bf1e2f0ec 4023a71bf1e2f0ec 3f50996f02165b70
8-ary 1-cube adaptive1 uniform 3e-4 ok 4023ac7deed4a03d 4020b5b8c482988c 3f8a46b0e379be77 3ff7819bf0c94a05 4023ac7deed4a03d 4023ac7deed4a03d 3f68d942bcc4d896
8-ary 1-cube adaptive1 uniform 1e-3 ok 4023bf7d44e009c3 4020b937ff356d9a 3fa611c79172e868 3ff7819bf0c94a05 4023bf7d44e009c3 4023bf7d44e009c3 3f848fcb91bd6ee2
8-ary 1-cube adaptive1 uniform 2e-3 ok 4023db11dafb9387 4020be3a5b8163ef 3fb65200b0832b5d 3ff7819bf0c94a05 4023db11dafb9387 4023db11dafb9387 3f945b78fa3540cc
8-ary 1-cube adaptive1 uniform 4e-3 ok 402413e59bb57651 4020c857ee5ed3ea 3fc6d68bcf5e4961 3ff7819bf0c94a05 402413e59bb57651 402413e59bb57651 3fa3f5e3152bdb99
8-ary 1-cube adaptive1 uniform 7e-3 ok 40246dc1ebabe7b1 4020d7f05d35f8b5 3fd4b3c20b98b763 3ff7819bf0c94a05 40246dc1ebabe7b1 40246dc1ebabe7b1 3fb0f8220da3698a
8-ary 1-cube adaptive1 uniform 1.2e-2 ok 402511fe3c400e68 4020f3ba5813914b 3fe2e10661353dc5 3ff7819bf0c94a05 402511fe3c400e68 402511fe3c400e68 3fbbc66cff40d2c6
8-ary 1-cube adaptive1 uniform 2e-2 ok 402648b56ae89cc3 40212700f44236b4 3ff18c07c469e66c 3ff7819bf0c94a05 402648b56ae89cc3 402648b56ae89cc3 3fc595ad56c94fd4
8-ary 1-cube adaptive1 uniform 3.5e-2 ok 4029842b54cd49c2 4021a654d7384450 4003b68bfdef70c5 3ff7819bf0c94a05 4029842b54cd49c2 4029842b54cd49c2 3fd0c42150276e30
8-ary 1-cube adaptive1 uniform 6e-2 ok 4032fa796ad44793 4022f4d6bc0e715c 40200fe89b80f48a 3ff7819bf0c94a05 4032fa796ad44793 4032fa796ad44793 3fd83621705230fc
8-ary 1-cube adaptive1 uniform 1e-1 saturated Channel 3ffc0a96efb7aa35 None
8-ary 1-cube adaptive1 uniform 2e-1 saturated Channel 401ac80f0af4b2c5 None
8-ary 1-cube adaptive1 uniform 5e-1 saturated Channel 4033e4bfc7319d33 None
8-ary 1-cube adaptive1 hotspot 1e-5 ok 4023a4b46efe650e 4020b44910f70f9e 3f3beff716183965 3ff7819bf0c94a04 4023a4b1cdf38265 4023a4b1cdf38265 3f1be04390c3f607
8-ary 1-cube adaptive1 hotspot 3e-5 ok 4023a543aaccd58c 4020b46882c5b0b9 3f54f53dbf72362d 3ff7819bf0c94a04 4023a53bc7abf008 4023a53bc7abf008 3f34e70c615ea89f
8-ary 1-cube adaptive1 hotspot 1e-4 ok 4023a73966dcf344 4020b4d69147b308 3f717abbe0b7d5c6 3ff7819bf0c94a04 4023a71f1c66320e 4023a71f1c66320e 3f5167db7776a2b4
8-ary 1-cube adaptive1 hotspot 3e-4 ok 4023acd686a0f840 4020b61108ab450c 3f8a47ff7227d0f5 3ff7819bf0c94a04 4023ac87a64db967 4023ac87a64db967 3f6a0d78e005132f
8-ary 1-cube adaptive1 hotspot 1e-3 ok 4023c0a74ebdf1da 4020ba5e5e52b919 3fa61572520f8117 3ff7819bf0c94a04 4023bfa040185b34 4023bfa040185b34 3f858c8c7fd3b0ed
8-ary 1-cube adaptive1 hotspot 2e-3 ok 4023dd6e7758c876 4020c08812576754 3fb65973741bf07a 3ff7819bf0c94a04 4023db5f795eaf52 4023db5f795eaf52 3f95528d704edf88
8-ary 1-cube adaptive1 hotspot 4e-3 ok 402418c62a717782 4020ccfad0c2b128 3fc6e5f6e567463d 3ff7819bf0c94a04 402414a173926d88 402414a173926d88 3fa4e22e359972b2
8-ary 1-cube adaptive1 hotspot 7e-3 ok 402476c922a6026a 4020e02f1a14b858 3fd4ccd14f041a1f 3ff7819bf0c94a04 40246f6a87b48432 40246f6a87b48432 3fb1b9daee5bd379
8-ary 1-cube adaptive1 hotspot 1.2e-2 ok 4025234f2d606514 402102747f0e054f 3fe30a7303936846 3ff7819bf0c94a04 402516249c19d5b9 402516249c19d5b9 3fbcf1b9ce0a4ecc
8-ary 1-cube adaptive1 hotspot 2e-2 ok 40266ca5204bb1f6 402141e8da02f1d1 3ff1d446417cb72c 3ff7819bf0c94a04 40265495ce335e6b 40265495ce335e6b 3fc66b1e46ea7aed
8-ary 1-cube adaptive1 hotspot 3.5e-2 ok 4029ee5450e05972 4021e12171eaefc1 400473fd837101bf 3ff7819bf0c94a04 4029b9bae15e1684 4029b9bae15e1684 3fd153bfea43b2ea
8-ary 1-cube adaptive1 hotspot 6e-2 saturated Channel 3ff16463273e47e9 None
8-ary 1-cube adaptive1 hotspot 1e-1 saturated Channel 401034587e0357eb None
8-ary 1-cube adaptive1 hotspot 2e-1 saturated Channel 40243d3d9dd7aeeb None
8-ary 1-cube adaptive1 hotspot 5e-1 saturated Channel 403ea366037901e9 None
8-ary 1-cube adaptive2 uniform 1e-5 ok 4023a4b17dbbffe2 4020b4461fcc5c90 3f3befeb3d0847dd 3ff7819bf0c94a05 4023a4b17dbbffe2 4023a4b17dbbffe2 3e26169a8b29f59a
8-ary 1-cube adaptive2 uniform 3e-5 ok 4023a53ad67623d2 4020b45faf445115 3f54f523152f75ba 3ff7819bf0c94a05 4023a53ad67623d2 4023a53ad67623d2 3e58d94dcb685d06
8-ary 1-cube adaptive2 uniform 1e-4 ok 4023a71bf1b8dd43 4020b4b9256828e5 3f717a71bc58eaa1 3ff7819bf0c94a05 4023a71bf1b8dd43 4023a71bf1b8dd43 3e91418f69530399
8-ary 1-cube adaptive2 uniform 3e-4 ok 4023ac7dea658e64 4020b5b8c017b63f 3f8a46b0d2bb911f 3ff7819bf0c94a05 4023ac7dea658e64 4023ac7dea658e64 3ec369bbda852182
8-ary 1-cube adaptive2 uniform 1e-3 ok 4023bf7ca12568a5 4020b9375d7e69ce 3fa611c58dd5960c 3ff7819bf0c94a05 4023bf7ca12568a5 4023bf7ca12568a5 3efaf615bc2f9d89
8-ary 1-cube adaptive2 uniform 2e-3 ok 4023db0cc24ca7f7 4020be3562f4a2cd 3fb651f09f6df4af 3ff7819bf0c94a05 4023db0cc24ca7f7 4023db0cc24ca7f7 3f1af5053352192a
8-ary 1-cube adaptive2 uniform 4e-3 ok 402413bd1c8177f0 4020c8316ee143ad 3fc6d60be1c2c087 3ff7819bf0c94a05 402413bd1c8177f0 402413bd1c8177f0 3f3af0c41f734a50
8-ary 1-cube adaptive2 uniform 7e-3 ok 40246cea74db5eaf 4020d72b9053b684 3fd4b16ccdcfdd33 3ff7819bf0c94a05 40246cea74db5eaf 40246cea74db5eaf 3f549767bf796782
8-ary 1-cube adaptive2 uniform 1.2e-2 ok 40250dc5661a4ee6 4020f022ab39dba0 3fe2d6f3cc74a053 3ff7819bf0c94a05 40250dc5661a4ee6 40250dc5661a4ee6 3f6e1c441bcf2e99
8-ary 1-cube adaptive2 uniform 2e-2 ok 402634dfa515fa16 4021181faf25e3ff 3ff16463beb766ad 3ff7819bf0c94a05 402634dfa515fa16 402634dfa515fa16 3f84a45feefd8738
8-ary 1-cube adaptive2 uniform 3.5e-2 ok 40290d973ec71620 402163d5d4bbe5b8 4002e637afc81c9c 3ff7819bf0c94a05 40290d973ec71620 40290d973ec71620 3f9e5ec75c1a80c4
8-ary 1-cube adaptive2 uniform 6e-2 ok 4030fa761f135e7c 4021ebaa6f880a70 401a321ca10b1291 3ff7819bf0c94a05 4030fa761f135e7c 4030fa761f135e7c 3fb41e8346d1fc36
8-ary 1-cube adaptive2 uniform 1e-1 ok 40624b9f8e76d446 402320d436d1fce4 4060ea8f132821e4 3ff7819bf0c94a05 40624b9f8e76d446 40624b9f8e76d446 3fc666b3c58c7395
8-ary 1-cube adaptive2 uniform 2e-1 saturated Channel 400f55e344e32eca None
8-ary 1-cube adaptive2 uniform 5e-1 saturated Channel 402ddeb8fe0b8198 None
8-ary 1-cube adaptive2 hotspot 1e-5 ok 4023a4b46efe5772 4020b44910f70202 3f3beff716180297 3ff7819bf0c94a04 4023a4b1cdf3775a 4023a4b1cdf3775a 3e28891c5df808ba
8-ary 1-cube adaptive2 hotspot 3e-5 ok 4023a543aacb661a 4020b46882c4416a 3f54f53dbf6de07d 3ff7819bf0c94a04 4023a53bc7aac5ce 4023a53bc7aac5ce 3e5b9a1fd38f2ed8
8-ary 1-cube adaptive2 hotspot 1e-4 ok 4023a73966a7ceda 4020b4d691129f56 3f717abbe0321410 3ff7819bf0c94a04 4023a71f1c3b0ddd 4023a71f1c3b0ddd 3e932b04ab034e22
8-ary 1-cube adaptive2 hotspot 3e-4 ok 4023acd68107837c 4020b611031719a8 3f8a47ff5d024c96 3ff7819bf0c94a04 4023ac87a1c1406e 4023ac87a1c1406e 3ec5905e3d7d7d2e
8-ary 1-cube adaptive2 hotspot 1e-3 ok 4023c0a680072fe4 4020ba5d92272f30 3fa6156fc6d77334 3ff7819bf0c94a04 4023bf9f97c782c5 4023bf9f97c782c5 3efdf2c2b4837cd0
8-ary 1-cube adaptive2 hotspot 2e-3 ok 4023dd6808b637d6 4020c081cc4a9033 3fb6595f293f30ce 3ff7819bf0c94a04 4023db5a3832afe7 4023db5a3832afe7 3f1df162afa2d446
8-ary 1-cube adaptive2 hotspot 4e-3 ok 40241893156649da 4020ccca421c9ee0 3fc6e5554c206e66 3ff7819bf0c94a04 4024147773d6763a 4024147773d6763a 3f3debe4495d1bfc
8-ary 1-cube adaptive2 hotspot 7e-3 ok 402475b97cc0f276 4020df370b07bfcd 3fd4c9de74012cf5 3ff7819bf0c94a04 40246e891965354f 40246e891965354f 3f56dd14209b4860
8-ary 1-cube adaptive2 hotspot 1.2e-2 ok 40251dfc5b280ce4 4020fdedbecd0acc 3fe2fdb1e41d8d7b 3ff7819bf0c94a04 402511a8e3bcfeb0 402511a8e3bcfeb0 3f70b41610dbb8f8
8-ary 1-cube adaptive2 hotspot 2e-2 ok 402653911eba4a38 40212f23fbfb1c4e 3ff1a1cd25302548 3ff7819bf0c94a04 40263eff2b568409 40263eff2b568409 3f86db1642630173
8-ary 1-cube adaptive2 hotspot 3.5e-2 ok 40295619223c6158 40218c9969b9534d 40036530e9a79328 3ff7819bf0c94a04 402931a3891221d0 402931a3891221d0 3fa0b75289902e7f
8-ary 1-cube adaptive2 hotspot 6e-2 ok 4031870f5ba1e056 40223836cad7fad1 401bcb68dca53934 3ff7819bf0c94a04 403164a47c0a0481 403164a47c0a0481 3fb5dee94178a956
8-ary 1-cube adaptive2 hotspot 1e-1 saturated Channel 3ff8c726975274a1 None
8-ary 1-cube adaptive2 hotspot 2e-1 saturated Channel 401dd6d86ea77164 None
8-ary 1-cube adaptive2 hotspot 5e-1 saturated Channel 403ac026fd62b381 None
";

#[test]
fn torus_model_bits_are_pinned() {
    let actual = torus_actual();
    if actual != TORUS_EXPECTED.trim() {
        // The full table, ready to paste over `TORUS_EXPECTED` after a
        // deliberate change of the model's arithmetic.
        eprintln!("{actual}");
    }
    assert_eq!(actual.lines().count(), TORUS_EXPECTED.trim().lines().count());
    for (got, want) in actual.lines().zip(TORUS_EXPECTED.trim().lines()) {
        assert_eq!(got, want);
    }
}
