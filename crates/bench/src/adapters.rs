//! Adapters exposing skip-webs through the baselines' shared
//! [`OrderedDictionary`] interface, so Table 1 sweeps all methods uniformly.

use skipweb_baselines::OrderedDictionary;
use skipweb_core::onedim::OneDimSkipWeb;
use skipweb_net::sim::{MessageMeter, SimNetwork};

/// A 1-D skip-web behind the Table 1 harness interface.
///
/// # Example
///
/// ```
/// use skipweb_baselines::OrderedDictionary;
/// use skipweb_bench::adapters::SkipWebDict;
/// use skipweb_net::MessageMeter;
///
/// let d = SkipWebDict::owner_hosted((0..100).map(|i| i * 2).collect(), 1);
/// let mut meter = MessageMeter::new();
/// assert_eq!(d.nearest(0, 33, &mut meter), 32);
/// ```
pub struct SkipWebDict {
    web: OneDimSkipWeb,
    name: &'static str,
}

impl SkipWebDict {
    /// Owner-hosted skip-web (`H = n`) — Table 1's "skip-webs" row.
    pub fn owner_hosted(keys: Vec<u64>, seed: u64) -> Self {
        SkipWebDict {
            web: OneDimSkipWeb::builder(keys).seed(seed).build(),
            name: "skip-web",
        }
    }

    /// Bucketed skip-web with per-host memory `memory` — Table 1's
    /// "bucket skip-webs" row.
    pub fn bucketed(keys: Vec<u64>, memory: usize, seed: u64) -> Self {
        SkipWebDict {
            web: OneDimSkipWeb::builder(keys)
                .seed(seed)
                .bucketed(memory)
                .build(),
            name: "bucket-skip-web",
        }
    }

    /// The wrapped web.
    pub fn web(&self) -> &OneDimSkipWeb {
        &self.web
    }
}

impl OrderedDictionary for SkipWebDict {
    fn name(&self) -> &'static str {
        self.name
    }

    fn len(&self) -> usize {
        self.web.len()
    }

    fn hosts(&self) -> usize {
        self.web.hosts()
    }

    fn nearest(&self, origin: usize, q: u64, meter: &mut MessageMeter) -> u64 {
        // Origins are host indices in the shared interface; map into the
        // item space (owner-hosted: identical; bucketed: any item whose
        // tower starts at that block).
        let origin_item = origin % self.web.len().max(1);
        let (nearest, _) = self.web.inner().ask(origin_item, &q, meter);
        nearest.expect("nonempty dictionary")
    }

    fn insert(&mut self, key: u64, meter: &mut MessageMeter) -> bool {
        self.web.inner_mut().insert(key, meter)
    }

    fn remove(&mut self, key: u64, meter: &mut MessageMeter) -> bool {
        self.web.inner_mut().remove(&key, meter)
    }

    fn account(&self, net: &mut SimNetwork) {
        self.web.inner().account(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipweb_baselines::common::oracle_nearest;

    #[test]
    fn adapter_answers_match_oracle() {
        let keys: Vec<u64> = (0..256).map(|i| i * 7).collect();
        let d = SkipWebDict::owner_hosted(keys.clone(), 3);
        for s in 0..100u64 {
            let q = (s * 131) % 2000;
            let mut meter = MessageMeter::new();
            assert_eq!(
                d.nearest(d.random_origin(s), q, &mut meter),
                oracle_nearest(&keys, q).unwrap()
            );
        }
    }

    #[test]
    fn adapter_updates_work() {
        let mut d = SkipWebDict::bucketed((0..128).map(|i| i * 10).collect(), 32, 4);
        let mut meter = MessageMeter::new();
        assert!(d.insert(55, &mut meter));
        assert!(!d.insert(55, &mut meter));
        let mut m2 = MessageMeter::new();
        assert_eq!(d.nearest(0, 54, &mut m2), 55);
        assert!(d.remove(55, &mut m2));
    }

    #[test]
    fn names_distinguish_variants() {
        let a = SkipWebDict::owner_hosted(vec![1, 2], 1);
        let b = SkipWebDict::bucketed(vec![1, 2], 8, 1);
        assert_ne!(a.name(), b.name());
        assert!(b.hosts() >= 1);
    }
}
