//! Change events fired by dynamic classes.
//!
//! The paper's DL Publishers "listen to changes in the corresponding
//! dynamic class by monitoring the JPie undo/redo stack" (§5.6). Here every
//! mutation of a [`crate::ClassHandle`] — including undo and redo — calls
//! each observer with a [`ClassEvent`].

/// A change notification from a dynamic class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassEvent {
    /// The class's interface version *after* this change. Advances exactly
    /// when the set of distributed method signatures changes.
    pub interface_version: u64,
    /// True when this change altered the distributed interface (and hence
    /// requires republication of the WSDL/IDL document).
    pub distributed_change: bool,
}

/// A change observer (see [`crate::ClassHandle::observe`]).
pub type ClassObserver = dyn Fn(&ClassEvent) + Send + Sync;
