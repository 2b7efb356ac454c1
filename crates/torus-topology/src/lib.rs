#![warn(missing_docs)]

//! Multidimensional torus topology substrate.
//!
//! This crate provides the structural foundation for the all-to-all
//! personalized exchange algorithms of Suh & Shin (ICPP 1998) and for the
//! wormhole torus network simulator:
//!
//! * [`Coord`] — fixed-capacity multidimensional coordinates,
//! * [`TorusShape`] — an `a_1 × a_2 × … × a_n` torus with mixed-radix
//!   linearization and neighbor/wrap arithmetic,
//! * [`Direction`]/[`Sign`] — unidirectional channel directions,
//! * [`Channel`] and path generation (ring paths, dimension-ordered routes),
//! * node groups, subtori and submesh decomposition (`group` module) exactly
//!   as defined in Sections 3 and 4.1 of the paper.
//!
//! Everything here is purely combinatorial: no simulation state, no I/O.
//!
//! # Example
//!
//! ```
//! use torus_topology::{TorusShape, Coord};
//!
//! let shape = TorusShape::new(&[12, 12]).unwrap();
//! assert_eq!(shape.num_nodes(), 144);
//! let c = Coord::new(&[3, 7]);
//! let id = shape.index_of(&c);
//! assert_eq!(shape.coord_of(id), c);
//! ```

pub mod coord;
pub mod direction;
pub mod group;
pub mod path;
pub mod ring;
pub mod route;
pub mod shape;

pub use coord::{Coord, MAX_DIMS};
pub use direction::{Direction, Sign};
pub use group::{GroupId, GroupInfo, SubmeshId};
pub use path::{dor_path, ring_path, Channel};
pub use ring::{next_alive, ring_add, ring_distance, ring_hops, ring_sub};
pub use route::detour_hops;
pub use shape::{NodeId, ShapeError, TorusShape};
