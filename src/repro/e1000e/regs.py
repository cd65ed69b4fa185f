"""Register map for the simulated Intel 1 GbE MAC (e1000/e1000e family).

Offsets follow the Intel 8254x/82574 software developer's manual subset
that the TX path and driver bring-up actually touch.  The test NIC in the
paper is "an Intel CT (EXPI9301CTBLK) PCIe board that contains an Intel
82574L chipset" (§4.2; the paper spells it 82754L).
"""

from __future__ import annotations

# Device control / status
CTRL = 0x0000
STATUS = 0x0008
EECD = 0x0010

# Interrupts
ICR = 0x00C0
IMS = 0x00D0
IMC = 0x00D8

# Receive
RCTL = 0x0100
RDBAL = 0x2800
RDBAH = 0x2804
RDLEN = 0x2808
RDH = 0x2810
RDT = 0x2818

# Transmit
TCTL = 0x0400
TIPG = 0x0410
TDBAL = 0x3800
TDBAH = 0x3804
TDLEN = 0x3808
TDH = 0x3810
TDT = 0x3818
TXDCTL = 0x3828

# Statistics
GPRC = 0x4074   # good packets received
MPC = 0x4010    # missed packets (RX ring exhausted)
GPTC = 0x4080   # good packets transmitted
TOTL = 0x40C4   # total octets transmitted (low)
TOTH = 0x40C8   # total octets transmitted (high)
COLC = 0x4028   # collision count (always 0 here)

# Receive address (MAC)
RAL0 = 0x5400
RAH0 = 0x5404

# Register window size (BAR0)
BAR_SIZE = 0x20000

# CTRL bits
CTRL_RST = 1 << 26
CTRL_SLU = 1 << 6

# STATUS bits
STATUS_LU = 1 << 1
STATUS_FD = 1 << 0

# TCTL bits
TCTL_EN = 1 << 1
TCTL_PSP = 1 << 3

# RCTL bits
RCTL_EN = 1 << 1
RCTL_BAM = 1 << 15

# ICR bits
ICR_TXDW = 1 << 0
ICR_RXT0 = 1 << 7

# RAH bits
RAH_AV = 1 << 31

# Legacy TX descriptor layout (16 bytes):
#   u64 buffer_addr; u16 length; u8 cso; u8 cmd; u8 status; u8 css; u16 special
TDESC_SIZE = 16

# Legacy RX descriptor layout (16 bytes):
#   u64 buffer_addr; u16 length; u16 csum; u8 status; u8 errors; u16 special
RDESC_SIZE = 16
RDESC_STATUS_DD = 0x01
RDESC_STATUS_EOP = 0x02
RX_BUFFER_SIZE = 2048
TDESC_CMD_EOP = 0x01
TDESC_CMD_IFCS = 0x02
TDESC_CMD_RS = 0x08
TDESC_STATUS_DD = 0x01

# Default ring geometry (256 descriptors, like the driver's default).
DEFAULT_RING_ENTRIES = 256

__all__ = [name for name in dir() if name.isupper()]
