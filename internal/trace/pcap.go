package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tcpsim"
)

// The capture is written as a classic pcap file (the format tcpdump,
// Wireshark, tshark, and libpcap all read) with nanosecond timestamps
// and raw-IPv4 link type: every record is a synthesized IPv4+TCP frame
// reconstructed from the simulated segment. Hosts get addresses from
// 10.0.0.0/24 in first-seen order, so a LAN run shows the client as
// 10.0.0.1 talking to 10.0.0.2.
const (
	// pcapMagicNanos is the nanosecond-resolution classic pcap magic.
	pcapMagicNanos = 0xa1b23c4d
	// linktypeRaw is LINKTYPE_RAW: packets begin directly with the IPv4
	// header, no link-layer framing.
	linktypeRaw = 101

	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
)

// tcpWireFlags converts the simulator's flag bits to the TCP header's
// bit assignments (FIN 0x01, SYN 0x02, RST 0x04, PSH 0x08, ACK 0x10).
func tcpWireFlags(f tcpsim.Flags) byte {
	var b byte
	if f&tcpsim.FlagFIN != 0 {
		b |= 0x01
	}
	if f&tcpsim.FlagSYN != 0 {
		b |= 0x02
	}
	if f&tcpsim.FlagRST != 0 {
		b |= 0x04
	}
	if f&tcpsim.FlagPSH != 0 {
		b |= 0x08
	}
	if f&tcpsim.FlagACK != 0 {
		b |= 0x10
	}
	return b
}

// sum16 adds b to a running RFC 1071 ones-complement sum of big-endian
// 16-bit words (an odd last byte padded with a zero). 2^16 is 1 modulo
// 0xffff, so wider words may be added whole and the carries folded in
// at the end; pieces that each start on a word boundary add up to the
// sum over their concatenation.
func sum16(sum uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		v := binary.BigEndian.Uint64(b)
		sum += v>>32 + v&0xffffffff
	}
	for ; len(b) >= 2; b = b[2:] {
		sum += uint64(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// foldChecksum folds the carries back in and complements.
func foldChecksum(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ipChecksum is the RFC 1071 checksum over b.
func ipChecksum(b []byte) uint16 { return foldChecksum(sum16(0, b)) }

// tcpChecksum is the checksum over the TCP pseudo-header (addresses,
// protocol 6, segment length) followed by the segment, without building
// the concatenation.
func tcpChecksum(src, dst, segment []byte) uint16 {
	sum := sum16(sum16(0, src), dst) + 6 + uint64(uint16(len(segment)))
	return foldChecksum(sum16(sum, segment))
}

// hostIPs assigns 10.0.0.N addresses to host names in first-seen order.
type hostIPs struct {
	byName map[string][4]byte
	next   byte
}

func (h *hostIPs) ip(name string) [4]byte {
	if ip, ok := h.byName[name]; ok {
		return ip
	}
	h.next++
	ip := [4]byte{10, 0, 0, h.next}
	h.byName[name] = ip
	return ip
}

// pcapChunk bounds one Write of the export: records collect in a buffer
// that is handed to the writer whenever the next one would not fit.
const pcapChunk = 32 << 10

// WritePcap writes the capture as a classic pcap file: nanosecond
// timestamp magic, raw-IPv4 link type, one synthesized IPv4+TCP frame
// per captured segment (dropped segments included — the capture point
// is the sender's interface, before the loss). Frames carry real IPv4
// header and TCP pseudo-header checksums so analyzers do not flag them.
func (c *Capture) WritePcap(w io.Writer) error {
	const recLen = 16 // per-packet record header
	buf := make([]byte, 24, pcapChunk)
	binary.LittleEndian.PutUint32(buf[0:], pcapMagicNanos)
	binary.LittleEndian.PutUint16(buf[4:], 2)      // version major
	binary.LittleEndian.PutUint16(buf[6:], 4)      // version minor
	binary.LittleEndian.PutUint32(buf[16:], 65535) // snaplen
	binary.LittleEndian.PutUint32(buf[20:], linktypeRaw)

	ips := &hostIPs{byName: make(map[string][4]byte)}
	var ipID uint16
	var zero [recLen + ipv4HeaderLen + tcpHeaderLen]byte
	for _, ev := range c.events {
		seg := ev.Seg
		src := ips.ip(seg.From.Host)
		dst := ips.ip(seg.To.Host)
		total := ipv4HeaderLen + tcpHeaderLen + len(seg.Payload)
		if len(buf)+recLen+total > pcapChunk && len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		at := len(buf)
		buf = append(append(buf, zero[:]...), seg.Payload...)
		rec, frame := buf[at:at+recLen], buf[at+recLen:]

		ns := int64(ev.Time)
		binary.LittleEndian.PutUint32(rec[0:], uint32(ns/1e9))
		binary.LittleEndian.PutUint32(rec[4:], uint32(ns%1e9))
		binary.LittleEndian.PutUint32(rec[8:], uint32(total))
		binary.LittleEndian.PutUint32(rec[12:], uint32(total))

		// IPv4 header.
		ip := frame[:ipv4HeaderLen]
		ip[0] = 0x45 // version 4, IHL 5
		binary.BigEndian.PutUint16(ip[2:], uint16(total))
		ipID++
		binary.BigEndian.PutUint16(ip[4:], ipID)
		binary.BigEndian.PutUint16(ip[6:], 0x4000) // DF
		ip[8] = 64                                 // TTL
		ip[9] = 6                                  // TCP
		copy(ip[12:16], src[:])
		copy(ip[16:20], dst[:])
		binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip))

		// TCP header, then the checksum over pseudo-header + segment.
		tcp := frame[ipv4HeaderLen:]
		binary.BigEndian.PutUint16(tcp[0:], uint16(seg.From.Port))
		binary.BigEndian.PutUint16(tcp[2:], uint16(seg.To.Port))
		binary.BigEndian.PutUint32(tcp[4:], seg.Seq)
		binary.BigEndian.PutUint32(tcp[8:], seg.Ack)
		tcp[12] = 5 << 4 // data offset
		tcp[13] = tcpWireFlags(seg.Flags)
		binary.BigEndian.PutUint16(tcp[14:], uint16(min(seg.Wnd, 65535)))
		binary.BigEndian.PutUint16(tcp[16:], tcpChecksum(src[:], dst[:], tcp))
	}
	_, err := w.Write(buf)
	return err
}

// PcapPacket is one frame decoded by ParsePcap.
type PcapPacket struct {
	// TimeNanos is the record timestamp in nanoseconds.
	TimeNanos    int64
	SrcIP, DstIP [4]byte
	DstPort      int
	Seq, Ack     uint32
	// Flags holds the TCP header flag byte (FIN 0x01 ... ACK 0x10).
	Flags        byte
	PayloadBytes int
}

// PcapFile is the decoded form of a WritePcap output.
type PcapFile struct {
	LinkType uint32
	Packets  []PcapPacket
}

// ParsePcap decodes a classic nanosecond pcap file of raw IPv4 frames,
// verifying the global header, per-record framing, and both the IPv4
// and TCP checksums of every frame. It is the unit-test counterpart of
// WritePcap, and rejects anything a real capture analyzer would.
func ParsePcap(data []byte) (*PcapFile, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("pcap: truncated global header (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data[0:]); magic != pcapMagicNanos {
		return nil, fmt.Errorf("pcap: bad magic %#x", magic)
	}
	if maj, min := binary.LittleEndian.Uint16(data[4:]), binary.LittleEndian.Uint16(data[6:]); maj != 2 || min != 4 {
		return nil, fmt.Errorf("pcap: unsupported version %d.%d", maj, min)
	}
	f := &PcapFile{LinkType: binary.LittleEndian.Uint32(data[20:])}
	if f.LinkType != linktypeRaw {
		return nil, fmt.Errorf("pcap: unexpected link type %d", f.LinkType)
	}
	off := 24
	for off < len(data) {
		if off+16 > len(data) {
			return nil, fmt.Errorf("pcap: truncated record header at offset %d", off)
		}
		sec := binary.LittleEndian.Uint32(data[off:])
		nsec := binary.LittleEndian.Uint32(data[off+4:])
		incl := int(binary.LittleEndian.Uint32(data[off+8:]))
		orig := int(binary.LittleEndian.Uint32(data[off+12:]))
		if nsec >= 1e9 {
			return nil, fmt.Errorf("pcap: nanosecond field %d out of range", nsec)
		}
		if incl != orig {
			return nil, fmt.Errorf("pcap: truncated packet (incl %d != orig %d)", incl, orig)
		}
		off += 16
		if off+incl > len(data) {
			return nil, fmt.Errorf("pcap: record of %d bytes overruns file", incl)
		}
		frame := data[off : off+incl]
		off += incl

		if len(frame) < ipv4HeaderLen+tcpHeaderLen {
			return nil, fmt.Errorf("pcap: frame of %d bytes too short for IPv4+TCP", len(frame))
		}
		if frame[0] != 0x45 {
			return nil, fmt.Errorf("pcap: unexpected IP version/IHL %#x", frame[0])
		}
		if total := int(binary.BigEndian.Uint16(frame[2:])); total != len(frame) {
			return nil, fmt.Errorf("pcap: IP total length %d != frame %d", total, len(frame))
		}
		if frame[9] != 6 {
			return nil, fmt.Errorf("pcap: IP protocol %d is not TCP", frame[9])
		}
		if got := ipChecksum(frame[:ipv4HeaderLen]); got != 0 {
			return nil, fmt.Errorf("pcap: bad IPv4 checksum (residual %#x)", got)
		}
		tcpLen := len(frame) - ipv4HeaderLen
		if got := tcpChecksum(frame[12:16], frame[16:20], frame[ipv4HeaderLen:]); got != 0 {
			return nil, fmt.Errorf("pcap: bad TCP checksum (residual %#x)", got)
		}

		tcp := frame[ipv4HeaderLen:]
		pkt := PcapPacket{
			TimeNanos:    int64(sec)*1e9 + int64(nsec),
			DstPort:      int(binary.BigEndian.Uint16(tcp[2:])),
			Seq:          binary.BigEndian.Uint32(tcp[4:]),
			Ack:          binary.BigEndian.Uint32(tcp[8:]),
			Flags:        tcp[13],
			PayloadBytes: tcpLen - tcpHeaderLen,
		}
		copy(pkt.SrcIP[:], frame[12:16])
		copy(pkt.DstIP[:], frame[16:20])
		f.Packets = append(f.Packets, pkt)
	}
	return f, nil
}
