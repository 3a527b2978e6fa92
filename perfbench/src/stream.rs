//! Request streams. Every serving workload's inputs are generated here
//! from the run's seed, and nothing else: the same seed always yields
//! the same keys in the same order.

use occu_gpusim::DeviceSpec;
use occu_graph::CompGraph;
use occu_models::ModelId;

/// The server's built-in device names.
pub const DEVICES: [&str; 5] = ["a100", "rtx2080ti", "p40", "v100", "t4"];

/// Batch sizes a timed stream draws from: `1..=MAX_BATCH`. The `miss`
/// stream never repeats a key, so the keyspace (20 models x 5 devices x
/// 1024 = 102,400 keys) must outlast any reachable rate over the window:
/// the collector's 1 ms batch dwell holds 2 closed-loop clients near
/// 2000 requests/s, 60,000 over a 30 s window.
pub const MAX_BATCH: usize = 1024;

/// Batch size of the set-up requests. It lies outside `1..=MAX_BATCH`,
/// so no timed request can hit a prediction the set-up cached, while
/// the plan cache (keyed by graph shape, which depends only on the
/// model) is warm for every model.
pub const WARM_BATCH: usize = 2048;
const _: () = assert!(
    WARM_BATCH > MAX_BATCH && WARM_BATCH <= 4096,
    "the server takes batch 1..=4096"
);

/// Distinct specs in the `hit` working set.
pub const HIT_WORKING_SET: usize = 16;

/// One prediction key: the named-model spec the server caches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Index into [`ModelId::ALL`].
    pub model: usize,
    /// Batch size.
    pub batch: usize,
    /// Index into [`DEVICES`].
    pub device: usize,
}

impl Key {
    /// The zoo model.
    pub fn model_id(&self) -> ModelId {
        ModelId::ALL[self.model]
    }

    /// The device name as the server spells it.
    pub fn device_name(&self) -> &'static str {
        DEVICES[self.device]
    }

    /// The device the server resolves the name to.
    pub fn device_spec(&self) -> DeviceSpec {
        DeviceSpec::by_name(self.device_name()).expect("DEVICES lists built-in devices only")
    }

    /// The computation graph the server builds for this key.
    pub fn graph(&self) -> CompGraph {
        let id = self.model_id();
        let mut cfg = id.default_config();
        cfg.batch_size = self.batch;
        id.build(&cfg)
    }

    /// The `/predict` body, optionally addressed to a fleet tenant.
    pub fn spec(&self, tenant: Option<&str>) -> String {
        let tenant = tenant
            .map(|t| format!("\"tenant\": \"{t}\", "))
            .unwrap_or_default();
        format!(
            "{{{tenant}\"model\": \"{}\", \"batch\": {}, \"device\": \"{}\"}}",
            self.model_id().name(),
            self.batch,
            self.device_name()
        )
    }
}

/// splitmix64: a small, fast, seedable generator for stream shapes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`salt`) of one seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Every key a timed stream may use: all zoo models x all devices x
/// batch `1..=MAX_BATCH`, in a fixed order.
pub fn keyspace() -> Vec<Key> {
    let mut keys = Vec::with_capacity(ModelId::ALL.len() * DEVICES.len() * MAX_BATCH);
    for model in 0..ModelId::ALL.len() {
        for device in 0..DEVICES.len() {
            for batch in 1..=MAX_BATCH {
                keys.push(Key {
                    model,
                    batch,
                    device,
                });
            }
        }
    }
    keys
}

/// One set-up key per zoo model; compiling their plans warms the plan
/// cache for every shape a timed stream can reach.
pub fn warm_keys() -> Vec<Key> {
    (0..ModelId::ALL.len())
        .map(|model| Key {
            model,
            batch: WARM_BATCH,
            device: 0,
        })
        .collect()
}

/// The `miss` stream: a seeded permutation of [`keyspace`]. Clients
/// take keys from it in order, so no key is ever requested twice.
pub fn miss_stream(seed: u64) -> Vec<Key> {
    let mut keys = keyspace();
    shuffle(&mut keys, &mut Rng::new(seed, 1));
    keys
}

/// The `hit` working set: the first [`HIT_WORKING_SET`] keys of a
/// seeded permutation.
pub fn hit_working_set(seed: u64) -> Vec<Key> {
    let mut keys = keyspace();
    shuffle(&mut keys, &mut Rng::new(seed, 2));
    keys.truncate(HIT_WORKING_SET);
    keys
}

/// The order one `hit` client cycles through the working set.
pub fn hit_order(seed: u64, client: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..HIT_WORKING_SET).collect();
    shuffle(&mut order, &mut Rng::new(seed, 3 + client as u64));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_streams() {
        assert_eq!(miss_stream(7), miss_stream(7));
        assert_ne!(miss_stream(7)[..64], miss_stream(8)[..64]);
        assert_eq!(hit_working_set(7), hit_working_set(7));
        assert_eq!(hit_order(7, 1), hit_order(7, 1));
        assert_ne!(hit_order(7, 0), hit_order(7, 1));
    }

    #[test]
    fn miss_stream_never_repeats_and_is_valid() {
        let stream = miss_stream(3);
        let distinct: HashSet<Key> = stream.iter().copied().collect();
        assert_eq!(distinct.len(), stream.len(), "a miss key repeats");
        assert_eq!(stream.len(), ModelId::ALL.len() * DEVICES.len() * MAX_BATCH);
        let warm: HashSet<Key> = warm_keys().into_iter().collect();
        for k in &stream {
            // The server's own validation: known model, built-in
            // device, batch in 1..=4096 -- and no set-up key.
            assert!(ModelId::from_name(k.model_id().name()).is_some());
            assert!(DeviceSpec::by_name(k.device_name()).is_some());
            assert!((1..=MAX_BATCH).contains(&k.batch));
            assert!(!warm.contains(k));
        }
        // Every model builds at both ends of the batch range.
        for model in 0..ModelId::ALL.len() {
            for batch in [1, MAX_BATCH] {
                assert!(
                    Key {
                        model,
                        batch,
                        device: 0
                    }
                    .graph()
                    .num_nodes()
                        > 0
                );
            }
        }
    }

    #[test]
    fn graph_shape_depends_only_on_the_model() {
        for model in 0..ModelId::ALL.len() {
            let small = Key {
                model,
                batch: 1,
                device: 0,
            }
            .graph();
            let warm = Key {
                model,
                batch: WARM_BATCH,
                device: 0,
            }
            .graph();
            assert_eq!(
                (small.num_nodes(), small.num_edges()),
                (warm.num_nodes(), warm.num_edges()),
                "{}",
                ModelId::ALL[model].name()
            );
        }
    }
}
