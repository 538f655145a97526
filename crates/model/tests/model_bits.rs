//! Bit-level pins of the tree model's arithmetic.
//!
//! Every case evaluates `AnalyticalModel::evaluate` on one organization,
//! destination pattern, option set and rate, and renders the outcome as one
//! line: the exact bits of `total_latency` plus an FNV-1a fold of every
//! cluster's intra/inter totals, concentrator wait and mean latency — or, past
//! the knee, the exact `ModelError` (component, utilisation bits, cluster).
//! The expected lines were captured from an evaluation that solved every
//! cluster and every ordered cluster pair separately, so this is the oracle
//! that keeps the journey memo (and anything else that rearranges the
//! evaluation) bit-identical to that arithmetic.

use mcnet_model::{AnalyticalModel, ModelError, ModelOptions};
use mcnet_system::{organizations, MultiClusterSystem, TrafficConfig, TrafficPattern};

/// Rates from deep in the steady region of the literal reading to well past
/// the knee of every organization under the per-node reading (the 32-node
/// `small_test` organization saturates last, between 3e-3 and 1e-2).
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
        Err(ModelError::Saturated { component, utilization, cluster }) => {
            format!("{rate:e} saturated {component:?} {:016x} {cluster:?}", utilization.to_bits())
        }
        Err(e) => format!("{rate:e} error {e}"),
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
            for (options_name, options) in [
                ("default", ModelOptions::default()),
                ("without_variance", ModelOptions::default().without_variance()),
                ("literal", ModelOptions::literal()),
            ] {
                for rate in RATES {
                    let model =
                        AnalyticalModel::with_options(&system, &traffic(pattern, rate), options)
                            .unwrap();
                    lines.push(format!(
                        "{org} {pattern_name} {options_name} {}",
                        render(rate, &model)
                    ));
                }
            }
        }
    }
    // Per-cluster rate scaling breaks the size classes apart: clusters of one
    // size no longer share their journeys.
    let system = organizations::table1_org_b();
    let scale: Vec<f64> = (0..system.num_clusters()).map(|i| 0.5 + 0.25 * (i % 4) as f64).collect();
    for rate in RATES {
        let model = AnalyticalModel::with_rate_scaling(
            &system,
            &traffic(TrafficPattern::Uniform, rate),
            &scale,
            ModelOptions::default(),
        )
        .unwrap();
        lines.push(format!("B uniform rate_scaled {}", render(rate, &model)));
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
A uniform without_variance 2.5e-6 ok 4033b76765131a45 6f9ce4900cf5fe75
A uniform without_variance 1e-5 ok 4033ecc507b43da5 1960b9c705664905
A uniform without_variance 4e-5 ok 4034cbf96eb823ea 4d0822b42715697d
A uniform without_variance 1e-4 ok 4036c0e53dc9ade9 7034c7023b1cb625
A uniform without_variance 2e-4 ok 403ae7b281d84f87 d6cedfb0f620fd75
A uniform without_variance 3e-4 ok 404086a4095118f0 02e03bae32c62d6d
A uniform without_variance 4e-4 ok 404621a85a8d7ebd 363443f259ac531d
A uniform without_variance 5e-4 ok 40551d2865a2be09 7e1069f6c91e1e8d
A uniform without_variance 6e-4 saturated Concentrator 3ff1336ff83f5dbf Some(0)
A uniform without_variance 8e-4 saturated Channel 3ff7c12a2125ed1f Some(0)
A uniform without_variance 1.2e-3 saturated Channel 4004d8c9782f3b1e Some(0)
A uniform without_variance 3e-3 saturated Channel 3ff396fbfaf79368 Some(0)
A uniform without_variance 1e-2 saturated Channel 3ff1f9a7a5519da6 Some(0)
A uniform without_variance 3e-2 saturated Channel 401151d771eea8cc Some(0)
A uniform literal 2.5e-6 ok 4033c156f4a58659 b3ac15e0efeef45d
A uniform literal 1e-5 ok 403415c80b1d9a65 5688cdb11adae1ed
A uniform literal 4e-5 ok 403587797bf5180e 5322e6c7ff4fd395
A uniform literal 1e-4 ok 403946647ca1867a 5ed12e4a8203f8d5
A uniform literal 2e-4 ok 404968ee31713d6f 6f689fb77fae43cd
A uniform literal 3e-4 saturated InterSourceQueue 3ff006586dbe7c47 Some(12)
A uniform literal 4e-4 saturated InterSourceQueue 3ff64087321c578a Some(0)
A uniform literal 5e-4 saturated InterSourceQueue 400046fb7f188c60 Some(0)
A uniform literal 6e-4 saturated InterSourceQueue 40071593e9578637 Some(0)
A uniform literal 8e-4 saturated Channel 3ff7c12a2125ed1f Some(0)
A uniform literal 1.2e-3 saturated InterSourceQueue 3ff225502d731d98 Some(0)
A uniform literal 3e-3 saturated InterSourceQueue 3ff07647890d2e2b Some(0)
A uniform literal 1e-2 saturated Channel 3ff1f9a7a5519da6 Some(0)
A uniform literal 3e-2 saturated Channel 401151d771eea8cc Some(0)
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
A hotspot without_variance 2.5e-6 ok 40341061b5d8a276 215f5d9ef653720a
A hotspot without_variance 1e-5 ok 40346dc164b0c422 654760dac7ffe175
A hotspot without_variance 4e-5 ok 403606646bc04c87 fa454b433714685c
A hotspot without_variance 1e-4 ok 403a2d5ccefdd636 898b3237a2d0ce3a
A hotspot without_variance 2e-4 ok 40465b879a8885a0 a99fdc429a727004
A hotspot without_variance 3e-4 saturated Channel 3ff5929d569308ce Some(0)
A hotspot without_variance 4e-4 saturated Channel 4000cd86b4f41602 Some(0)
A hotspot without_variance 5e-4 saturated Channel 400627c42f6002b5 Some(0)
A hotspot without_variance 6e-4 saturated Channel 400b93eebcaa6c3d Some(0)
A hotspot without_variance 8e-4 saturated Channel 3ff004e574f2c3c1 Some(0)
A hotspot without_variance 1.2e-3 saturated Channel 3fff3362d40a0d55 Some(0)
A hotspot without_variance 3e-3 saturated Concentrator 3ff13ef3d731c921 Some(0)
A hotspot without_variance 1e-2 saturated Concentrator 3ff3234e915454c3 Some(0)
A hotspot without_variance 3e-2 saturated Channel 400effb02ce1338a Some(0)
A hotspot literal 2.5e-6 ok 403422c7f31f5501 f347481c787d7c29
A hotspot literal 1e-5 ok 4034bc40c60fa700 b93d9ba92fe770dc
A hotspot literal 4e-5 ok 4037af2c8788c4ff 1138414164b40651
A hotspot literal 1e-4 ok 40445ce5dfc9331b d4666bf0f0629b1a
A hotspot literal 2e-4 saturated InterSourceQueue 40001542ff4fd98a Some(0)
A hotspot literal 3e-4 saturated Channel 3ff5929d569308ce Some(0)
A hotspot literal 4e-4 saturated InterSourceQueue 3ff017a27abe424f Some(0)
A hotspot literal 5e-4 saturated InterSourceQueue 3ff6ab7c3733ece8 Some(0)
A hotspot literal 6e-4 saturated InterSourceQueue 3ffed8e4c8d7b0d2 Some(0)
A hotspot literal 8e-4 saturated Channel 3ff004e574f2c3c1 Some(0)
A hotspot literal 1.2e-3 saturated Channel 3fff3362d40a0d55 Some(0)
A hotspot literal 3e-3 saturated InterSourceQueue 400e16764b3126d1 Some(0)
A hotspot literal 1e-2 saturated InterSourceQueue 4016754d4bed6fec Some(0)
A hotspot literal 3e-2 saturated Channel 400effb02ce1338a Some(0)
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
B uniform without_variance 2.5e-6 ok 4035de8f706d7339 861f61bc36771881
B uniform without_variance 1e-5 ok 4036052b11f65724 3d2dbc5a5966574c
B uniform without_variance 4e-5 ok 4036a3b3e15cd6b6 f2ac602daffcaefd
B uniform without_variance 1e-4 ok 4037f5f81e3653a3 c8ac801c3f89363a
B uniform without_variance 2e-4 ok 403a72c61fe54ef2 302e91fe35ef3e93
B uniform without_variance 3e-4 ok 403d615da63eefa3 dd17f2edd2883047
B uniform without_variance 4e-4 ok 404073196c300f48 e89fac1a14a718cc
B uniform without_variance 5e-4 ok 40429c5ba8a0d46c 212ce047461bdb9d
B uniform without_variance 6e-4 ok 404559858d9993b2 a52fb719e006fa1d
B uniform without_variance 8e-4 ok 404e28f53de9d4b6 a743d5106eca8bf4
B uniform without_variance 1.2e-3 saturated Channel 3ff469d249ea59d4 Some(0)
B uniform without_variance 3e-3 saturated Channel 4002453627514bfc Some(0)
B uniform without_variance 1e-2 saturated Channel 40193f83a90314ee Some(0)
B uniform without_variance 3e-2 saturated Channel 403a149b6069138c Some(0)
B uniform literal 2.5e-6 ok 4035e5c6e45d8f18 c858c22add9d07b0
B uniform literal 1e-5 ok 403622ae0a617f3d e4f16cb714b92bf9
B uniform literal 4e-5 ok 40372511bdd4b4f3 1f0d385ae84cecdf
B uniform literal 1e-4 ok 40398167c68aa2f9 6ef7b1ff8eaceeb6
B uniform literal 2e-4 ok 403f2026221672c8 175f836050539c2b
B uniform literal 3e-4 ok 40456eed7bfeef38 4ae9a5d92097f584
B uniform literal 4e-4 saturated InterSourceQueue 3ff184c92aaf33ca Some(11)
B uniform literal 5e-4 saturated InterSourceQueue 3ff1706654d2571a Some(8)
B uniform literal 6e-4 saturated InterSourceQueue 3ff3ccbc8fbbaf15 Some(0)
B uniform literal 8e-4 saturated InterSourceQueue 4000d48fe9a9b006 Some(0)
B uniform literal 1.2e-3 saturated InterSourceQueue 3ff9e464ff5e8931 Some(0)
B uniform literal 3e-3 saturated InterSourceQueue 4010ed2746b2f8fd Some(0)
B uniform literal 1e-2 saturated Channel 40193f83a90314ee Some(0)
B uniform literal 3e-2 saturated Channel 403a149b6069138c Some(0)
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
B hotspot without_variance 2.5e-6 ok 403626f1fff095e6 3b47313a98a20093
B hotspot without_variance 1e-5 ok 40365daf0126e40b 56c3bd511b836465
B hotspot without_variance 4e-5 ok 4037426d2339f0ba 23ffe9e0835c63a2
B hotspot without_variance 1e-4 ok 40394221444933e9 33682294bbd2336a
B hotspot without_variance 2e-4 ok 403d73ad20e5e9e3 f8958e734b7a0129
B hotspot without_variance 3e-4 ok 4041bdf8b8d1d7e2 eebedca6f35887b8
B hotspot without_variance 4e-4 ok 4046f73deed848f6 811fd98de1555b2b
B hotspot without_variance 5e-4 saturated Channel 3ff4115dfbae4de5 Some(0)
B hotspot without_variance 6e-4 saturated Channel 3ffe473511a4f77b Some(0)
B hotspot without_variance 8e-4 saturated Channel 400a2d1f43893e3a Some(0)
B hotspot without_variance 1.2e-3 saturated Channel 40173d39064194b3 Some(0)
B hotspot without_variance 3e-3 saturated Channel 3ff987887532e700 Some(0)
B hotspot without_variance 1e-2 saturated Channel 401674ecd119b1f6 Some(0)
B hotspot without_variance 3e-2 saturated Channel 40367674a3769ab0 Some(0)
B hotspot literal 2.5e-6 ok 40363168e15bd274 05d21784c84c2bb9
B hotspot literal 1e-5 ok 403689196bc01ebd fa514298ca0cdf20
B hotspot literal 4e-5 ok 40380dcdd9766501 fba1e7f30c3bc900
B hotspot literal 1e-4 ok 403c38034e1b29ab 615fc25e9b33426c
B hotspot literal 2e-4 ok 40505117e365be88 cf556bfe9663555e
B hotspot literal 3e-4 saturated InterSourceQueue 3ff88cc35168021a Some(0)
B hotspot literal 4e-4 saturated InterSourceQueue 4006a876a414a2b9 Some(0)
B hotspot literal 5e-4 saturated Channel 3ff4115dfbae4de5 Some(0)
B hotspot literal 6e-4 saturated Channel 3ffe473511a4f77b Some(0)
B hotspot literal 8e-4 saturated InterSourceQueue 3ff7b4c99363172c Some(0)
B hotspot literal 1.2e-3 saturated InterSourceQueue 3ff444728378b887 Some(0)
B hotspot literal 3e-3 saturated InterSourceQueue 400aab1afc1f745d Some(0)
B hotspot literal 1e-2 saturated Channel 401674ecd119b1f6 Some(0)
B hotspot literal 3e-2 saturated Channel 40367674a3769ab0 Some(0)
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
medium uniform without_variance 2.5e-6 ok 4033f759eccb5a15 2e60084e246fc495
medium uniform without_variance 1e-5 ok 403403bfc701e242 913c2483b3cf72bd
medium uniform without_variance 4e-5 ok 403435d0813af4e6 1db7aa9c1add0d79
medium uniform without_variance 1e-4 ok 40349c4953c29360 1d779b91162e64a1
medium uniform without_variance 2e-4 ok 40354e6bb216eda9 595e269ca23463d1
medium uniform without_variance 3e-4 ok 40360a83cd246a0d 7ae2696c542c704d
medium uniform without_variance 4e-4 ok 4036d195a8722d04 b0da16b727c2d17d
medium uniform without_variance 5e-4 ok 4037a4ce527be1be c5a724ea32eb64d1
medium uniform without_variance 6e-4 ok 4038858ce5a1e706 485e026ce94698dd
medium uniform without_variance 8e-4 ok 403a765b4ec05c75 6e28738086dd6cd1
medium uniform without_variance 1.2e-3 ok 403f5a6974611a5a a03026c023a80aad
medium uniform without_variance 3e-3 saturated Concentrator 3ff0ba4fcd53467d Some(0)
medium uniform without_variance 1e-2 saturated Channel 3ff0ddf5b88ca982 Some(0)
medium uniform without_variance 3e-2 saturated Channel 4012c028a0f31c72 Some(0)
medium uniform literal 2.5e-6 ok 4033fa18f6cd0f9a a42987375916df11
medium uniform literal 1e-5 ok 40340ed063a527a9 5c4afeaaa79b58b5
medium uniform literal 4e-5 ok 403463648461070c 41ca2d6055055865
medium uniform literal 1e-4 ok 40351559113d9710 95cd05a308f1720d
medium uniform literal 2e-4 ok 40365bef1f0cb35f 2fbe82c62ccfe705
medium uniform literal 3e-4 ok 4037d0b2905df0db bd7c753591d199f5
medium uniform literal 4e-4 ok 403981e064a4aa4d 1b1d89f5834040d9
medium uniform literal 5e-4 ok 403b85abfe2a763e 44ed8eb6643d972d
medium uniform literal 6e-4 ok 403e01e12be997b4 10dd4798d5d4b0a9
medium uniform literal 8e-4 ok 4042fe63027f22ca 20a95566f51f9721
medium uniform literal 1.2e-3 saturated InterSourceQueue 3ff03d1b18fa79dd Some(4)
medium uniform literal 3e-3 saturated InterSourceQueue 3ffadd453bf7e2a8 Some(0)
medium uniform literal 1e-2 saturated Channel 3ff0ddf5b88ca982 Some(0)
medium uniform literal 3e-2 saturated Channel 4012c028a0f31c72 Some(0)
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
medium hotspot without_variance 2.5e-6 ok 40342b33e15749a8 ccfdd6005c83016e
medium hotspot without_variance 1e-5 ok 40343ac8cc31d984 a0639bf1e2ae7e8a
medium hotspot without_variance 4e-5 ok 403479e964990ae8 1aa5df7cf45181ac
medium hotspot without_variance 1e-4 ok 4034fc2a6775b27f 4b9a23d90fe38fae
medium hotspot without_variance 2e-4 ok 4035e219e1f6dd1c 7476e9a42daf91f5
medium hotspot without_variance 3e-4 ok 4036da0f76736446 1658f38f88d3d54c
medium hotspot without_variance 4e-4 ok 4037e6c81460d620 a45976a2c8c1c2d3
medium hotspot without_variance 5e-4 ok 40390baecced2af8 55bfc8043a1809dd
medium hotspot without_variance 6e-4 ok 403a4d1be2b2282c 1204860fb67bdc7b
medium hotspot without_variance 8e-4 ok 403d3df2cbe5e3c6 abfab5493f492ce7
medium hotspot without_variance 1.2e-3 ok 4043197c7fd09df0 a221f7b0599084d1
medium hotspot without_variance 3e-3 saturated Channel 3ffd80a92ced76a6 Some(0)
medium hotspot without_variance 1e-2 saturated Concentrator 3ff2512a732d6dc0 Some(0)
medium hotspot without_variance 3e-2 saturated Channel 40109f7f62d5b541 Some(0)
medium hotspot literal 2.5e-6 ok 40342eaf3be59ac2 5bbb98d47fac3cc0
medium hotspot literal 1e-5 ok 403448d92ffc2e87 60657d4fa23882b0
medium hotspot literal 4e-5 ok 4034b4739100bef9 46014e943080a180
medium hotspot literal 1e-4 ok 40359b41847312db a597e11fe9439d0b
medium hotspot literal 2e-4 ok 403754de6695e17e 4cfd3c1f2ff4dc0f
medium hotspot literal 3e-4 ok 4039713310bdc732 41a9b0794d20705c
medium hotspot literal 4e-4 ok 403c29c599e67f06 68dc22b31e3e3faa
medium hotspot literal 5e-4 ok 4040014e0d2e89df b48c6d4ec4e018bd
medium hotspot literal 6e-4 ok 404357e806585645 853c018479060d36
medium hotspot literal 8e-4 saturated InterSourceQueue 3ff2016f98b34f3b Some(6)
medium hotspot literal 1.2e-3 saturated InterSourceQueue 3ff810d9caa146a0 Some(0)
medium hotspot literal 3e-3 saturated InterSourceQueue 3ff5df0402ee5b5d Some(0)
medium hotspot literal 1e-2 saturated InterSourceQueue 401655711fcdb007 Some(0)
medium hotspot literal 3e-2 saturated Channel 40109f7f62d5b541 Some(0)
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
small_test uniform without_variance 2.5e-6 ok 4031f8352cccc9ba 0261a80c379cf1a4
small_test uniform without_variance 1e-5 ok 4031fb785cc070f2 e50d259f830dde6d
small_test uniform without_variance 4e-5 ok 4032088fe9d91894 6882a109e5ce8aca
small_test uniform without_variance 1e-4 ok 403222f36aebba4a c7c96fe34fdc2a30
small_test uniform without_variance 2e-4 ok 40324f8d1f384b67 7577d0a76299306f
small_test uniform without_variance 3e-4 ok 40327cf2c517bc0c eebfdfca0b31940e
small_test uniform without_variance 4e-4 ok 4032ab2b529703b0 539375abd1d2367a
small_test uniform without_variance 5e-4 ok 4032da3e1581f7d3 dfc50fc57182b24e
small_test uniform without_variance 6e-4 ok 40330a32b904b239 0f6aae3c43fd8213
small_test uniform without_variance 8e-4 ok 40336ce24655ca64 a7a757adaa195b25
small_test uniform without_variance 1.2e-3 ok 40343e57c9413e8c a8cdcfa85c64914c
small_test uniform without_variance 3e-3 ok 403905d5c519f50a 8699f5feeecefcb6
small_test uniform without_variance 1e-2 saturated Concentrator 3ff3967e4e4ba1b8 Some(0)
small_test uniform without_variance 3e-2 saturated Concentrator 3ffcf7ccd18916d3 Some(0)
small_test uniform literal 2.5e-6 ok 4031f92c604bde91 22d0f6b3e9480435
small_test uniform literal 1e-5 ok 4031ff572440e660 60506e8b05411b22
small_test uniform literal 4e-5 ok 4032182ae7c4112c 7634519d98880ac5
small_test uniform literal 1e-4 ok 40324a99b5a8ea42 9e23223248bbc8ad
small_test uniform literal 2e-4 ok 4032a10dc4a1b22e 1b1db1bba9fc4890
small_test uniform literal 3e-4 ok 4032faac919cac30 e288c5395c74af05
small_test uniform literal 4e-4 ok 403357ac5e8d5039 27f3e3745d6542ca
small_test uniform literal 5e-4 ok 4033b848faa9eb37 6559591f6aba8871
small_test uniform literal 6e-4 ok 40341cc48c44deaa c16ac240361c78ff
small_test uniform literal 8e-4 ok 4034f286a55e70d5 0c07a0064eb0d55a
small_test uniform literal 1.2e-3 ok 4036dba217e1ee8e 3c054a3f919c635f
small_test uniform literal 3e-3 ok 404602836d73dd9c 4dbf8bf74184317e
small_test uniform literal 1e-2 saturated InterSourceQueue 3ff6c1d3fae46b56 Some(0)
small_test uniform literal 3e-2 saturated InterSourceQueue 4016cfdc5590dd18 Some(0)
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
small_test hotspot without_variance 2.5e-6 ok 40321b86e6af8518 0f2bf2b64235687a
small_test hotspot without_variance 1e-5 ok 40321f082de6951d 0d1717920695fb41
small_test hotspot without_variance 4e-5 ok 40322d1a341dee92 520c5169e2f5c825
small_test hotspot without_variance 1e-4 ok 4032497cf61afc5e 4ecf7973a0a00905
small_test hotspot without_variance 2e-4 ok 4032798a60e06616 4ec9157ab4defb58
small_test hotspot without_variance 3e-4 ok 4032aa8d389fa462 a1f04a4949cc779d
small_test hotspot without_variance 4e-4 ok 4032dc8edb588efd 72b0b3c6c6edc29f
small_test hotspot without_variance 5e-4 ok 40330f992df97a63 1b8ceb911be3ef38
small_test hotspot without_variance 6e-4 ok 403343b6a667ad1e 3cda839b23bff8ae
small_test hotspot without_variance 8e-4 ok 4033af57f7e39052 e4a0bef46f424422
small_test hotspot without_variance 1.2e-3 ok 40349596690e86c2 a42e289596b01220
small_test hotspot without_variance 3e-3 ok 403a1395d84a0966 5a04f79c99654bcb
small_test hotspot without_variance 1e-2 saturated Concentrator 3ff6f09b7df288ef Some(0)
small_test hotspot without_variance 3e-2 saturated Concentrator 3ffa7c28fa16f04c Some(0)
small_test hotspot literal 2.5e-6 ok 40321c97df5863af b10890c01da66d43
small_test hotspot literal 1e-5 ok 4032234e80791012 2b00ceaa70d0ff06
small_test hotspot literal 4e-5 ok 40323e5ae22a3c6e eb38611ed91671f4
small_test hotspot literal 1e-4 ok 40327568774dddd8 5e82d59fb2be44ea
small_test hotspot literal 2e-4 ok 4032d42072fca80f f896ce9e81cee1f3
small_test hotspot literal 3e-4 ok 403336ca5ab3d7d3 92da46de2ee92d2a
small_test hotspot literal 4e-4 ok 40339db4ae180998 791b392e4e6a99c1
small_test hotspot literal 5e-4 ok 4034093774848d5c ea13bb0162fae9ff
small_test hotspot literal 6e-4 ok 403479b5deb3e1fa 6452ce5d48d238c2
small_test hotspot literal 8e-4 ok 40356b76a62f4523 562f00ff6936af57
small_test hotspot literal 1.2e-3 ok 4037a2ef69936a0a 3cd0d8b7b9deb8ab
small_test hotspot literal 3e-3 ok 405874de29afa38d 60bc4008e821188e
small_test hotspot literal 1e-2 saturated InterSourceQueue 3ff4870dff199151 Some(0)
small_test hotspot literal 3e-2 saturated InterSourceQueue 401424167640dd2c Some(0)
B uniform rate_scaled 2.5e-6 ok 4035dd82a698679d 353fc0e34bb1bdb8
B uniform rate_scaled 1e-5 ok 403600f28ab1cde2 eb7f49060013c622
B uniform rate_scaled 4e-5 ok 4036927b1909a95f 83f7b741f53fa1c4
B uniform rate_scaled 1e-4 ok 4037c93305e5dd56 480c42c880784bbf
B uniform rate_scaled 2e-4 ok 403a138a64accedd a83bdb3c08c4e9c0
B uniform rate_scaled 3e-4 ok 403ccac5906d3fcc 3b35444d817a6555
B uniform rate_scaled 4e-4 ok 40400b4b21c2ed92 6de8f2a17bbb56bc
B uniform rate_scaled 5e-4 ok 40421c2c20d1c070 fd37684fd314cb7e
B uniform rate_scaled 6e-4 ok 4044d44951790056 d444b1616c685bab
B uniform rate_scaled 8e-4 saturated Channel 3ff1087bca488486 Some(11)
B uniform rate_scaled 1.2e-3 saturated Channel 3ffe583d54c121b2 Some(0)
B uniform rate_scaled 3e-3 saturated Channel 3ff019c0fc2df4ba Some(0)
B uniform rate_scaled 1e-2 saturated Channel 400b23deca66143b Some(0)
B uniform rate_scaled 3e-2 saturated Channel 402b2f2e1b811268 Some(0)
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
