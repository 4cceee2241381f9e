//! System architecture: instances, placement, and RPC bindings (§2.2.1).

use crate::component::ComponentClass;
use hsched_numeric::Cycles;
use hsched_platform::PlatformId;
use std::collections::HashMap;

/// Index of a component instance within a [`System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub usize);

/// Index of a physical computational node. Components on the same node call
/// each other with no messaging; calls across nodes go through a network
/// platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A named instantiation of a component class, placed on an abstract
/// platform (for its threads) and a physical node (for RPC locality).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentInstance {
    /// Instance name, unique in the system (e.g. `Sensor1`).
    pub name: String,
    /// Index into [`System::classes`].
    pub class: usize,
    /// The abstract computing platform all threads of this instance run on.
    pub platform: PlatformId,
    /// The physical node hosting the platform.
    pub node: NodeId,
}

/// Messaging parameters for a binding that crosses nodes: the RPC middleware
/// sends a request message before the callee runs and a response message
/// after it completes, both scheduled on a network platform (§2.2.1 — "the
/// network is similar to a computational node").
#[derive(Debug, Clone, PartialEq)]
pub struct RpcLink {
    /// The network platform carrying both messages.
    pub network: PlatformId,
    /// Worst-case transmission time of the request message.
    pub request_wcet: Cycles,
    /// Best-case transmission time of the request message.
    pub request_bcet: Cycles,
    /// Worst-case transmission time of the response message.
    pub response_wcet: Cycles,
    /// Best-case transmission time of the response message.
    pub response_bcet: Cycles,
    /// Priority of the messages on the network (greater = higher).
    pub priority: crate::Priority,
}

/// A connection from one instance's required method to another instance's
/// provided method.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The calling instance.
    pub from: InstanceId,
    /// Name of the required method on the caller.
    pub required: String,
    /// The serving instance.
    pub to: InstanceId,
    /// Name of the provided method on the callee.
    pub provided: String,
    /// Messaging, for cross-node bindings. `None` means a local call with
    /// zero overhead (the binding must then be node-local; validation
    /// enforces this).
    pub link: Option<RpcLink>,
}

/// A complete system: classes, instances, and bindings. Build one with
/// [`SystemBuilder`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct System {
    /// Component classes (templates).
    pub classes: Vec<ComponentClass>,
    /// Component instances.
    pub instances: Vec<ComponentInstance>,
    /// RPC bindings.
    pub bindings: Vec<Binding>,
}

impl System {
    /// The class of an instance.
    pub fn class_of(&self, id: InstanceId) -> &ComponentClass {
        &self.classes[self.instances[id.0].class]
    }

    /// Instance lookup by name.
    pub fn instance_by_name(&self, name: &str) -> Option<(InstanceId, &ComponentInstance)> {
        self.instances
            .iter()
            .enumerate()
            .find(|(_, inst)| inst.name == name)
            .map(|(i, inst)| (InstanceId(i), inst))
    }

    /// The binding serving `required` on instance `from`, if any.
    pub fn binding_for(&self, from: InstanceId, required: &str) -> Option<&Binding> {
        self.bindings
            .iter()
            .find(|b| b.from == from && b.required == required)
    }

    /// Iterates instances with their ids.
    pub fn instances(&self) -> impl Iterator<Item = (InstanceId, &ComponentInstance)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstanceId(i), inst))
    }

    /// Removes an instance, returning it. The instance's own (outgoing)
    /// bindings are dropped with it; the removal is refused if any *other*
    /// instance still binds to one of its provided methods, since that
    /// caller would be left dangling. Instance ids greater than `id` shift
    /// down by one (in the returned system and in every retained binding),
    /// exactly as if the instance had never been added.
    ///
    /// This is the structural half of online departure handling: the
    /// admission controller uses it to retire components without rebuilding
    /// the system from scratch.
    pub fn remove_instance(&mut self, id: InstanceId) -> Result<ComponentInstance, String> {
        if id.0 >= self.instances.len() {
            return Err(format!(
                "instance id {} out of range (system has {})",
                id.0,
                self.instances.len()
            ));
        }
        if let Some(b) = self.bindings.iter().find(|b| b.to == id && b.from != id) {
            return Err(format!(
                "cannot remove `{}`: instance `{}` still binds `{}` to its `{}`",
                self.instances[id.0].name, self.instances[b.from.0].name, b.required, b.provided
            ));
        }
        self.bindings.retain(|b| b.from != id);
        for b in &mut self.bindings {
            if b.from.0 > id.0 {
                b.from.0 -= 1;
            }
            if b.to.0 > id.0 {
                b.to.0 -= 1;
            }
        }
        Ok(self.instances.remove(id.0))
    }

    /// Removes the instance with the given name (see
    /// [`System::remove_instance`]).
    pub fn remove_instance_by_name(&mut self, name: &str) -> Result<ComponentInstance, String> {
        let (id, _) = self
            .instance_by_name(name)
            .ok_or_else(|| format!("no instance named `{name}`"))?;
        self.remove_instance(id)
    }

    /// Re-parents an instance into this system: reuses a structurally
    /// identical class if one is already registered (so churn and shard
    /// merges don't grow the class list without bound), appends `class`
    /// otherwise, and pushes the instance with its class index rewritten.
    /// Returns the new instance's id.
    ///
    /// This is the single definition of class identity for the admission
    /// engine's system-mirror plumbing (shard merge/split, router
    /// assembly, instance admission).
    pub fn adopt_instance(
        &mut self,
        class: ComponentClass,
        instance: ComponentInstance,
    ) -> InstanceId {
        let class_idx = self
            .classes
            .iter()
            .position(|existing| *existing == class)
            .unwrap_or_else(|| {
                self.classes.push(class);
                self.classes.len() - 1
            });
        self.instances.push(ComponentInstance {
            class: class_idx,
            ..instance
        });
        InstanceId(self.instances.len() - 1)
    }
}

/// Fluent builder for a [`System`].
///
/// ```
/// use hsched_model::{SystemBuilder, ComponentClass, ThreadSpec, Action, ProvidedMethod};
/// use hsched_numeric::rat;
/// use hsched_platform::PlatformId;
///
/// let server = ComponentClass::new("Server")
///     .provides(ProvidedMethod::new("get", rat(20, 1)))
///     .thread(ThreadSpec::realizes("T", "get", 1,
///         vec![Action::task("serve", rat(1, 1), rat(1, 2))]));
///
/// let mut b = SystemBuilder::new();
/// let class = b.add_class(server);
/// let inst = b.instantiate("S1", class, PlatformId(0), 0);
/// let system = b.build();
/// assert_eq!(system.instances.len(), 1);
/// # let _ = inst;
/// ```
#[derive(Debug, Default)]
pub struct SystemBuilder {
    system: System,
    class_names: HashMap<String, usize>,
}

impl SystemBuilder {
    /// An empty builder.
    pub fn new() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Registers a component class, returning its index.
    pub fn add_class(&mut self, class: ComponentClass) -> usize {
        let idx = self.system.classes.len();
        self.class_names.insert(class.name.clone(), idx);
        self.system.classes.push(class);
        idx
    }

    /// Looks up a previously added class by name.
    pub fn class_by_name(&self, name: &str) -> Option<usize> {
        self.class_names.get(name).copied()
    }

    /// Instantiates a class on a platform and node, returning the instance id.
    pub fn instantiate(
        &mut self,
        name: impl Into<String>,
        class: usize,
        platform: PlatformId,
        node: usize,
    ) -> InstanceId {
        self.system.instances.push(ComponentInstance {
            name: name.into(),
            class,
            platform,
            node: NodeId(node),
        });
        InstanceId(self.system.instances.len() - 1)
    }

    /// Binds `from.required` to `to.provided` as a node-local call.
    pub fn bind(
        &mut self,
        from: InstanceId,
        required: impl Into<String>,
        to: InstanceId,
        provided: impl Into<String>,
    ) -> &mut SystemBuilder {
        self.system.bindings.push(Binding {
            from,
            required: required.into(),
            to,
            provided: provided.into(),
            link: None,
        });
        self
    }

    /// Binds `from.required` to `to.provided` across nodes via `link`.
    pub fn bind_remote(
        &mut self,
        from: InstanceId,
        required: impl Into<String>,
        to: InstanceId,
        provided: impl Into<String>,
        link: RpcLink,
    ) -> &mut SystemBuilder {
        self.system.bindings.push(Binding {
            from,
            required: required.into(),
            to,
            provided: provided.into(),
            link: Some(link),
        });
        self
    }

    /// Finishes building. Call [`System::validate`] on the result before
    /// flattening to transactions.
    pub fn build(self) -> System {
        self.system
    }
}

#[cfg(test)]
pub(crate) use tests::paper_system;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{sensor_integration_class, sensor_reading_class};

    /// Builds the paper's three-component system of §2.2.1:
    /// `Sensor1`, `Sensor2` (class `SensorReading`) and `Integrator`
    /// (class `SensorIntegration`), each on its own platform/node with
    /// local bindings (the paper's example ignores messages).
    pub(crate) fn paper_system() -> System {
        let mut b = SystemBuilder::new();
        let reading = b.add_class(sensor_reading_class());
        let integration = b.add_class(sensor_integration_class());
        let s1 = b.instantiate("Sensor1", reading, PlatformId(0), 0);
        let s2 = b.instantiate("Sensor2", reading, PlatformId(1), 0);
        let it = b.instantiate("Integrator", integration, PlatformId(2), 0);
        b.bind(it, "readSensor1", s1, "read");
        b.bind(it, "readSensor2", s2, "read");
        b.build()
    }

    #[test]
    fn paper_system_structure() {
        let sys = paper_system();
        assert_eq!(sys.classes.len(), 2);
        assert_eq!(sys.instances.len(), 3);
        assert_eq!(sys.bindings.len(), 2);
        let (it, _) = sys.instance_by_name("Integrator").unwrap();
        assert_eq!(sys.class_of(it).name, "SensorIntegration");
        let b = sys.binding_for(it, "readSensor1").unwrap();
        assert_eq!(sys.instances[b.to.0].name, "Sensor1");
        assert!(b.link.is_none());
        assert!(sys.binding_for(it, "nope").is_none());
    }

    #[test]
    fn builder_lookups() {
        let mut b = SystemBuilder::new();
        let idx = b.add_class(sensor_reading_class());
        assert_eq!(b.class_by_name("SensorReading"), Some(idx));
        assert_eq!(b.class_by_name("Missing"), None);
    }

    #[test]
    fn remove_instance_refuses_bound_targets() {
        let mut sys = paper_system();
        let (s1, _) = sys.instance_by_name("Sensor1").unwrap();
        let err = sys.remove_instance(s1).unwrap_err();
        assert!(err.contains("still binds"), "{err}");
        assert_eq!(sys.instances.len(), 3, "refused removal must not mutate");
        assert_eq!(sys.bindings.len(), 2);
    }

    #[test]
    fn remove_instance_drops_outgoing_bindings_and_reindexes() {
        let mut sys = paper_system();
        let (it, _) = sys.instance_by_name("Integrator").unwrap();
        let removed = sys.remove_instance(it).unwrap();
        assert_eq!(removed.name, "Integrator");
        assert_eq!(sys.instances.len(), 2);
        assert!(sys.bindings.is_empty(), "its bindings go with it");
        // Removing a middle instance shifts later ids in bindings.
        let mut sys = paper_system();
        let (s2, _) = sys.instance_by_name("Sensor2").unwrap();
        // Sensor2 is bound by the Integrator: refused.
        assert!(sys.remove_instance(s2).is_err());
        // Drop the binding first, then the removal reindexes the other one.
        sys.bindings.retain(|b| b.required != "readSensor2");
        sys.remove_instance(s2).unwrap();
        assert_eq!(sys.instances.len(), 2);
        let (it, _) = sys.instance_by_name("Integrator").unwrap();
        assert_eq!(it.0, 1, "Integrator shifted down");
        let b = sys.binding_for(it, "readSensor1").unwrap();
        assert_eq!(sys.instances[b.to.0].name, "Sensor1");
    }

    #[test]
    fn remove_instance_by_name_and_bad_ids() {
        let mut sys = paper_system();
        assert!(sys.remove_instance_by_name("nope").is_err());
        assert!(sys.remove_instance(InstanceId(17)).is_err());
        sys.bindings.clear();
        assert!(sys.remove_instance_by_name("Integrator").is_ok());
        assert!(sys.instance_by_name("Integrator").is_none());
    }

    #[test]
    fn instances_iterator() {
        let sys = paper_system();
        let names: Vec<&str> = sys.instances().map(|(_, i)| i.name.as_str()).collect();
        assert_eq!(names, ["Sensor1", "Sensor2", "Integrator"]);
    }
}
