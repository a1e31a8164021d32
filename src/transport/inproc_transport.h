// In-process transport: the request goes to a MessageHandler by reference
// and the reply comes back by move, so a page crosses it without a copy,
// an encoding or a CRC. Traffic is still counted as the wire would carry
// it: EncodedSize() of each request and reply. The wire format itself is
// covered by the TCP tests and by tests/wire_checking_handler.h, which
// round-trips every frame of whole-pager runs through Encode/Decode.
//
// Supports fault injection: Disconnect() makes every subsequent call fail
// with UNAVAILABLE, exactly what the pager sees when a server workstation
// crashes; DropNextReply() loses a single reply to exercise timeout paths.

#ifndef SRC_TRANSPORT_INPROC_TRANSPORT_H_
#define SRC_TRANSPORT_INPROC_TRANSPORT_H_

#include <cstdint>

#include "src/transport/transport.h"

namespace rmp {

class InProcTransport final : public Transport {
 public:
  // `handler` must outlive this transport.
  explicit InProcTransport(MessageHandler* handler) : handler_(handler) {}

  Result<Message> Call(const Message& request) override;
  Status SendOneWay(const Message& request) override;

  bool connected() const override { return connected_; }
  void Close() override { connected_ = false; }

  // Fault injection.
  void Disconnect() { connected_ = false; }
  void Reconnect() { connected_ = true; }
  void DropNextReply() { drop_next_reply_ = true; }

  // Traffic accounting (bytes as they would appear on the wire), used by the
  // timing model to charge transfer time.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t calls() const { return calls_; }

 private:
  MessageHandler* handler_;
  bool connected_ = true;
  bool drop_next_reply_ = false;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t calls_ = 0;
};

}  // namespace rmp

#endif  // SRC_TRANSPORT_INPROC_TRANSPORT_H_
