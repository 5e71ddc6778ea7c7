//! GRIP and GRRP: the two base protocols of the Grid information service
//! architecture (§4 of the paper).
//!
//! "Interactions between higher-level services (or users) and providers
//! are defined in terms of two basic protocols: a soft-state registration
//! protocol for identifying entities participating in the information
//! service, and an enquiry protocol for retrieval of information about
//! those entities, whether via query or subscription."
//!
//! * [`grip`] — the enquiry protocol: search, lookup, subscription;
//! * [`grrp`] — the registration protocol: soft-state registry, refresh
//!   agent, failure detector;
//! * [`wire`] — binary encodings and the top-level [`ProtocolMessage`]
//!   frame moved by the runtimes;
//! * [`frame`] — length-prefixed framing of [`ProtocolMessage`] for byte
//!   streams (the TCP transport's wire format).
//!
//! Everything here is sans-IO: state machines take messages and clock
//! readings in and yield messages out, so the same code runs over the
//! deterministic simulator and the live threaded runtime.

#![warn(missing_docs)]

pub mod frame;
pub mod grip;
pub mod grrp;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod wire;

pub use frame::{
    encode_frame, encode_frame_limited, encode_mux_frame_limited, frame_bytes, Frame, FrameDecoder,
    FRAME_HEADER, MAX_FRAME, MUX_TAG,
};
pub use grip::{
    result_digest, GripReply, GripRequest, RequestId, ResultCode, SearchSpec, SubscriptionMode,
    SyncCookie,
};
pub use grrp::{
    FailureDetector, GrrpMessage, Notification, Registration, RegistrationAgent, SoftStateRegistry,
};
pub use metrics::{Gauge, Histogram, MetricsRegistry, PackedPair};
pub use stats::Counter;
pub use trace::{SpanRecord, TraceContext, TraceId, TraceSink};
pub use wire::{Action, Handshake, ProtocolMessage};
