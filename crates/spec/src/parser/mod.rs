//! Specification parsers: the paper-style tagged-block DSL and a
//! pretty-printer that inverts it.

pub mod block;
pub mod dsl;
pub mod printer;

pub use block::{Block, ParseError};
pub use dsl::parse_spec;
pub use printer::print_spec;
