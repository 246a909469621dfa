//! What the differential suites share: the matrix that drives them, its
//! random instances and §2.3's second oracle.

// Each test binary compiles these modules and calls a part of them.
#![allow(dead_code)]

pub(crate) mod algebra;
pub(crate) mod matrix;
pub(crate) mod random;
pub(crate) mod sqlgen;
