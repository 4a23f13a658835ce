"""Live client/server deployment of the training protocol over TCP."""
from .protocol import (
    HEADER_SIZE,
    Message,
    MessageBuffer,
    MessageType,
    STATUS_DATA_EXHAUSTED,
    blob_from_model_data,
    configure_logging,
    encode_message,
    model_data_body,
    parse_endpoint,
)
from .server import RoundPolicy, RoundRecord, Server
from .agent import Agent

__all__ = [
    "HEADER_SIZE",
    "Message",
    "MessageBuffer",
    "MessageType",
    "STATUS_DATA_EXHAUSTED",
    "blob_from_model_data",
    "configure_logging",
    "encode_message",
    "model_data_body",
    "parse_endpoint",
    "RoundPolicy",
    "RoundRecord",
    "Server",
    "Agent",
]
