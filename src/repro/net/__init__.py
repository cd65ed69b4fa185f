"""Network substrate: frames, sink, raw sockets, the pktblast tool."""

from .blaster import BlastResult, PacketBlaster
from .frame import (
    ETH_DATA_LEN,
    ETH_FRAME_LEN,
    ETH_HEADER_LEN,
    ETH_ZLEN,
    ETHERTYPE_EXPERIMENTAL,
    EthernetFrame,
    make_test_frame,
)
from .sink import PacketSink
from .syscalls import RawPacketSocket

__all__ = [
    "BlastResult",
    "ETH_DATA_LEN",
    "ETH_FRAME_LEN",
    "ETH_HEADER_LEN",
    "ETH_ZLEN",
    "ETHERTYPE_EXPERIMENTAL",
    "EthernetFrame",
    "PacketBlaster",
    "PacketSink",
    "RawPacketSocket",
    "make_test_frame",
]
