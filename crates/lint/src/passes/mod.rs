//! The analyzer's four passes. Each pass is a free function appending to
//! a shared diagnostic vector; [`crate::lint`] runs them all and sorts.

pub mod compensation;
pub mod coordination;
pub mod data;
pub mod template;
