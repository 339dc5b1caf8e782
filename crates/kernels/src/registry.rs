//! The kernel-plugin registry: name → plugin lookup, with all built-in
//! kernels pre-registered. Applications may register custom kernels, which
//! is the paper's "define kernel plugins for the stages of the pattern"
//! step (Fig. 1, step 2).

use crate::analysis::{CocoKernel, LsdmapKernel, WhamKernel};
use crate::md::{ExchangeKernel, MdKernel};
use crate::misc::{CcountKernel, MkfileKernel, SleepKernel, StressKernel};
use crate::plugin::{KernelError, KernelPlugin};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A shared, thread-safe kernel registry.
///
/// The built-in table is built once per process and shared behind an
/// [`Arc`]: [`KernelRegistry::with_builtins`] clones a pointer, and
/// [`KernelRegistry::register`] copies the table on write, so a custom
/// registry never changes the shared one.
///
/// ```
/// use entk_kernels::KernelRegistry;
/// use serde_json::json;
///
/// let registry = KernelRegistry::with_builtins();
/// let kernel = registry.get("misc.ccount").unwrap();
/// let out = kernel
///     .execute_model(&json!({ "bytes": 42 }), &mut entk_sim::SimRng::seed_from_u64(1))
///     .unwrap();
/// assert_eq!(out["chars"], 42);
/// ```
#[derive(Clone)]
pub struct KernelRegistry {
    plugins: Arc<HashMap<String, Arc<dyn KernelPlugin>>>,
}

impl KernelRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        KernelRegistry {
            plugins: Arc::default(),
        }
    }

    /// A registry with every built-in kernel.
    pub fn with_builtins() -> Self {
        static BUILTINS: OnceLock<KernelRegistry> = OnceLock::new();
        BUILTINS
            .get_or_init(|| {
                let mut r = Self::empty();
                r.register(Arc::new(MkfileKernel));
                r.register(Arc::new(CcountKernel));
                r.register(Arc::new(SleepKernel));
                r.register(Arc::new(StressKernel));
                r.register(Arc::new(MdKernel::amber()));
                r.register(Arc::new(MdKernel::gromacs()));
                r.register(Arc::new(ExchangeKernel));
                r.register(Arc::new(CocoKernel));
                r.register(Arc::new(LsdmapKernel));
                r.register(Arc::new(WhamKernel));
                r
            })
            .clone()
    }

    /// Registers (or replaces) a plugin under its own name. The table is
    /// copied first if another registry shares it.
    pub fn register(&mut self, plugin: Arc<dyn KernelPlugin>) {
        Arc::make_mut(&mut self.plugins).insert(plugin.name().to_string(), plugin);
    }

    /// Looks up a plugin; `None` builds no message.
    pub fn find(&self, name: &str) -> Option<Arc<dyn KernelPlugin>> {
        self.plugins.get(name).cloned()
    }

    /// Looks up a plugin; the error lists the registered names.
    pub fn get(&self, name: &str) -> Result<Arc<dyn KernelPlugin>, KernelError> {
        self.find(name).ok_or_else(|| {
            KernelError::new(format!(
                "unknown kernel plugin {name:?} (registered: {})",
                self.names().join(", ")
            ))
        })
    }

    /// Registered plugin names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.plugins.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entk_cluster::PlatformSpec;
    use entk_sim::SimRng;
    use serde_json::json;

    #[test]
    fn builtins_are_registered() {
        let r = KernelRegistry::with_builtins();
        for name in [
            "misc.mkfile",
            "misc.ccount",
            "misc.sleep",
            "misc.stress",
            "md.amber",
            "md.gromacs",
            "md.exchange",
            "ana.coco",
            "ana.lsdmap",
            "ana.wham",
        ] {
            assert!(r.get(name).is_ok(), "{name} missing");
        }
        assert_eq!(r.names().len(), 10);
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let r = KernelRegistry::with_builtins();
        let err = r.get("md.namd").err().expect("lookup fails");
        assert!(err.message.contains("md.namd"));
    }

    #[test]
    fn custom_kernel_can_be_registered() {
        struct Custom;
        impl KernelPlugin for Custom {
            fn name(&self) -> &str {
                "custom.k"
            }
            fn plan(
                &self,
                _: &serde_json::Value,
                _: usize,
                _: &PlatformSpec,
                _: &mut SimRng,
            ) -> Result<crate::plugin::UnitPlan, crate::plugin::KernelError> {
                Ok(crate::plugin::UnitPlan {
                    duration: entk_sim::SimDuration::from_secs(1),
                    ..Default::default()
                })
            }
            fn execute_model(
                &self,
                _: &serde_json::Value,
                _: &mut SimRng,
            ) -> Result<serde_json::Value, crate::plugin::KernelError> {
                Ok(json!({}))
            }
            fn execute(
                &self,
                _: &serde_json::Value,
            ) -> Result<serde_json::Value, crate::plugin::KernelError> {
                Ok(json!({}))
            }
        }
        let mut r = KernelRegistry::empty();
        r.register(Arc::new(Custom));
        assert!(r.get("custom.k").is_ok());
        // Registering on a copy of the shared built-in table leaves the
        // table every other registry sees as it was.
        let mut custom = KernelRegistry::with_builtins();
        custom.register(Arc::new(Custom));
        assert!(custom.get("custom.k").is_ok());
        assert_eq!(custom.names().len(), 11);
        assert!(KernelRegistry::with_builtins().get("custom.k").is_err());
        assert_eq!(KernelRegistry::with_builtins().names().len(), 10);
    }
}
