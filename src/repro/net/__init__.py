"""Link layer: addressing, frames, media (cable/hub), switch, NIC, ARP."""

from repro.net.addresses import (
    MAC_BROADCAST,
    IPAddress,
    MACAddress,
    fresh_multicast_mac,
    fresh_unicast_mac,
    ip,
    mac,
)
from repro.net.arp import (
    ARP_MESSAGE_SIZE,
    ARP_REPLY,
    ARP_REQUEST,
    ArpMessage,
    ArpService,
)
from repro.net.frame import (
    ETHERNET_MIN_FRAME,
    ETHERNET_OVERHEAD,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
)
from repro.net.loss import (
    BurstLoss,
    LossModel,
    RandomLoss,
    ScriptedLoss,
    WindowLoss,
)
from repro.net.medium import Attachment, Cable, FrameReceiver, Hub
from repro.net.nic import NIC, VirtualInterface
from repro.net.switch import Switch, SwitchPort

__all__ = [
    "ARP_MESSAGE_SIZE",
    "ARP_REPLY",
    "ARP_REQUEST",
    "ArpMessage",
    "ArpService",
    "Attachment",
    "BurstLoss",
    "Cable",
    "ETHERNET_MIN_FRAME",
    "ETHERNET_OVERHEAD",
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "EthernetFrame",
    "FrameReceiver",
    "Hub",
    "IPAddress",
    "LossModel",
    "MACAddress",
    "MAC_BROADCAST",
    "NIC",
    "RandomLoss",
    "ScriptedLoss",
    "Switch",
    "SwitchPort",
    "VirtualInterface",
    "WindowLoss",
    "fresh_multicast_mac",
    "fresh_unicast_mac",
    "ip",
    "mac",
]
