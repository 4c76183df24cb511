//! The wire codec's JSON parser, shared with the rest of the workspace
//! through `tp-obs` so requests and artifacts go through one grammar.

pub use tp_obs::json::{parse, JsonValue};
