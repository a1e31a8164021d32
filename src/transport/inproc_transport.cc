#include "src/transport/inproc_transport.h"

namespace rmp {

Result<Message> InProcTransport::Call(const Message& request) {
  if (!connected_) {
    return UnavailableError("peer disconnected");
  }
  ++calls_;
  bytes_sent_ += EncodedSize(request);
  Message reply = handler_->Handle(request);
  bytes_received_ += EncodedSize(reply);
  if (drop_next_reply_) {
    drop_next_reply_ = false;
    connected_ = false;
    return UnavailableError("reply lost (injected)");
  }
  return reply;
}

Status InProcTransport::SendOneWay(const Message& request) {
  if (!connected_) {
    return UnavailableError("peer disconnected");
  }
  bytes_sent_ += EncodedSize(request);
  handler_->Handle(request);
  return OkStatus();
}

}  // namespace rmp
