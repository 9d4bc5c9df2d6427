//! The component factory (§3.5 of the paper).
//!
//! The component factory produces a distributed application by manipulating
//! instance placement: using the instance classifier's output and the
//! analysis engine's classification→machine map, it moves each component
//! instantiation request to the appropriate computer.
//!
//! During distributed execution the paper replicates a factory onto each
//! machine; the factories act as peers, each trapping local instantiation
//! requests and forwarding remote ones. In the simulation all machines share
//! one process, so a single [`ComponentFactory`] makes the routing decision
//! the peers would.

use crate::classifier::ClassificationId;
use coign_com::{Clsid, MachineId};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Routes component instantiation requests to machines according to the
/// chosen distribution.
#[derive(Debug)]
pub struct ComponentFactory {
    /// The live routing table. Behind a lock so the self-healing runtime
    /// can swap in a re-solved placement mid-run ([`ComponentFactory::swap_placement`]).
    placement: Mutex<HashMap<ClassificationId, MachineId>>,
    /// Static per-class pins consulted when a classification was never
    /// profiled — data files and databases live where they live no matter
    /// what the profile saw. Behind a lock so recovery can retarget pins
    /// off a dead machine ([`ComponentFactory::retarget_pins`]).
    class_pins: Mutex<HashMap<Clsid, MachineId>>,
    default_machine: MachineId,
}

impl ComponentFactory {
    /// Creates a factory over a placement.
    ///
    /// Classifications absent from `placement` (e.g. new classifications
    /// never seen during profiling) fall back to their class's pin in
    /// `class_pins` if one exists, then to `default_machine`.
    pub(crate) fn new(
        placement: HashMap<ClassificationId, MachineId>,
        class_pins: HashMap<Clsid, MachineId>,
        default_machine: MachineId,
    ) -> Self {
        ComponentFactory {
            placement: Mutex::new(placement),
            class_pins: Mutex::new(class_pins),
            default_machine,
        }
    }

    /// Decides where an instantiation of `class` (an instance of `clsid`)
    /// should be fulfilled.
    pub(crate) fn place(&self, class: ClassificationId, clsid: Clsid) -> MachineId {
        if let Some(&machine) = self.placement.lock().get(&class) {
            return machine;
        }
        self.class_pins
            .lock()
            .get(&clsid)
            .copied()
            .unwrap_or(self.default_machine)
    }

    /// Copy of the current routing table.
    pub(crate) fn placement_snapshot(&self) -> HashMap<ClassificationId, MachineId> {
        self.placement.lock().clone()
    }

    /// Replaces the routing table with a re-solved placement (online
    /// re-partitioning). Returns how many classifications changed machine.
    pub(crate) fn swap_placement(&self, new: HashMap<ClassificationId, MachineId>) -> usize {
        let mut placement = self.placement.lock();
        let changed = new
            .iter()
            .filter(|(class, machine)| placement.get(class) != Some(machine))
            .count()
            + placement
                .keys()
                .filter(|class| !new.contains_key(class))
                .count();
        *placement = new;
        changed
    }

    /// Redirects every class pin targeting `from` (e.g. a machine just
    /// declared dead) to `to`. Returns how many pins moved.
    pub(crate) fn retarget_pins(&self, from: MachineId, to: MachineId) -> usize {
        let mut pins = self.class_pins.lock();
        let mut moved = 0;
        for machine in pins.values_mut() {
            if *machine == from {
                *machine = to;
                moved += 1;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_class() -> Clsid {
        Clsid::from_name("AnyClass")
    }

    fn factory() -> ComponentFactory {
        let mut placement = HashMap::new();
        placement.insert(ClassificationId(1), MachineId::CLIENT);
        placement.insert(ClassificationId(2), MachineId::SERVER);
        ComponentFactory::new(placement, HashMap::new(), MachineId::CLIENT)
    }

    #[test]
    fn routes_by_classification() {
        let f = factory();
        assert_eq!(f.place(ClassificationId(1), any_class()), MachineId::CLIENT);
        assert_eq!(f.place(ClassificationId(2), any_class()), MachineId::SERVER);
    }

    #[test]
    fn unknown_classifications_default() {
        let f = factory();
        assert_eq!(
            f.place(ClassificationId(99), any_class()),
            MachineId::CLIENT
        );
    }

    #[test]
    fn class_pins_catch_unprofiled_storage() {
        let store = Clsid::from_name("DocStore");
        let mut pins = HashMap::new();
        pins.insert(store, MachineId::SERVER);
        let f = ComponentFactory::new(HashMap::new(), pins, MachineId::CLIENT);
        // Unprofiled classification of a pinned class → the pin wins.
        assert_eq!(f.place(ClassificationId(42), store), MachineId::SERVER);
        // Unprofiled classification of an ordinary class → default.
        assert_eq!(
            f.place(ClassificationId(42), any_class()),
            MachineId::CLIENT
        );
        // An explicit placement overrides the pin.
        let mut placement = HashMap::new();
        placement.insert(ClassificationId(7), MachineId::CLIENT);
        let mut pins = HashMap::new();
        pins.insert(store, MachineId::SERVER);
        let f = ComponentFactory::new(placement, pins, MachineId::CLIENT);
        assert_eq!(f.place(ClassificationId(7), store), MachineId::CLIENT);
    }

    #[test]
    fn swap_placement_reroutes_future_instantiations() {
        let f = factory();
        assert_eq!(f.place(ClassificationId(2), any_class()), MachineId::SERVER);
        let mut new = f.placement_snapshot();
        new.insert(ClassificationId(2), MachineId::CLIENT);
        assert_eq!(f.swap_placement(new), 1);
        assert_eq!(f.place(ClassificationId(2), any_class()), MachineId::CLIENT);
        // Swapping the identical table changes nothing.
        let same = f.placement_snapshot();
        assert_eq!(f.swap_placement(same), 0);
    }

    #[test]
    fn retarget_pins_moves_dead_machine_pins() {
        let store = Clsid::from_name("DocStore");
        let mut pins = HashMap::new();
        pins.insert(store, MachineId::SERVER);
        let f = ComponentFactory::new(HashMap::new(), pins, MachineId::CLIENT);
        assert_eq!(f.retarget_pins(MachineId::SERVER, MachineId::CLIENT), 1);
        assert_eq!(f.place(ClassificationId(42), store), MachineId::CLIENT);
        assert_eq!(f.retarget_pins(MachineId::SERVER, MachineId::CLIENT), 0);
    }
}
